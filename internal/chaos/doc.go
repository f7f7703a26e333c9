// Package chaos holds the fault-injection test suite for the serving
// stack. The package has no production code: its tests carry the
// `faultinject` build tag and exercise the full stack — core index
// persistence and snapshot recovery, the serve batching/degradation
// path, and the reload lifecycle — while internal/fault delivers
// deterministic, seeded faults at the instrumented sites.
//
// Run it with:
//
//	go test -tags faultinject -race ./internal/chaos/
//
// Each test iterates a fixed seed matrix (overridable with CHAOS_SEED=n
// to reproduce a single CI shard) and asserts the robustness invariants
// the rest of the repo promises but cannot probe without faults:
//
//   - Every request gets an answer or a typed error — never a hang, never
//     a silently dropped in-flight request.
//   - Every successful answer is correct: exact at full rank, within the
//     engine's advertised entrywise bound when served degraded.
//   - A failing reload source never disturbs the serving generation; the
//     old engine keeps answering exactly until a healthy candidate swaps in.
//   - A snapshot directory survives torn writes, failed fsyncs and failed
//     placements: recovery always finds the newest intact generation.
//
// A plain `go test ./...` compiles none of this (and the fault hooks in
// production code compile to nothing), so the chaos suite can be as
// hostile as it likes without tier-1 cost.
package chaos
