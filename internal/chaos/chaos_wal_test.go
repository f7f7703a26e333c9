//go:build faultinject

package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/fault"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
)

// walGraph regenerates the fixture's graph. fixture() only retains the
// index; the ingest pipeline needs the graph itself, and ErdosRenyi is
// deterministic in its seed.
func walGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.ErdosRenyi(120, 700, 42)
	if err != nil {
		t.Fatalf("regenerating fixture graph: %v", err)
	}
	return g
}

// pickFresh returns k edges absent from g, scanned deterministically so
// every seed ingests the same stream.
func pickFresh(t *testing.T, g *graph.Graph, k int) []ingest.Edge {
	t.Helper()
	out := make([]ingest.Edge, 0, k)
	n := g.N()
	for u := 0; u < n && len(out) < k; u++ {
		for v := n - 1; v >= 0 && len(out) < k; v-- {
			if u != v && !g.HasEdge(u, v) {
				out = append(out, ingest.Edge{Src: u, Dst: v})
			}
		}
	}
	if len(out) < k {
		t.Fatalf("fixture graph too dense to pick %d fresh edges", k)
	}
	return out
}

// TestChaosWALCrashMidAppendRestartConverges drives an edge stream into
// the ingestion service while the WAL's write and fsync paths randomly
// tear and fail, then simulates a crash (the service is abandoned
// without Close and trailing garbage lands on the final segment, as a
// power cut mid-frame would leave it). Invariants: every append failure
// is typed; a restart's replay succeeds with no ErrCorrupt; every
// acknowledged edge survives; and re-sending the full stream converges
// to exactly base + stream, duplicates collapsing to no-ops.
func TestChaosWALCrashMidAppendRestartConverges(t *testing.T) {
	ix, _ := fixture(t)
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			g := walGraph(t)
			dir := t.TempDir()

			svc, err := ingest.NewService(g, ix, ingest.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Recover(); err != nil {
				t.Fatalf("recover on an empty log: %v", err)
			}
			fresh := pickFresh(t, g, 40)

			fault.Arm(fault.SiteWALAppend, fault.Plan{ErrProb: 0.1, TornProb: 0.2, TornBytes: 13})
			fault.Arm(fault.SiteWALSync, fault.Plan{ErrProb: 0.2})
			var acked []ingest.Edge
			failures := 0
			for _, e := range fresh {
				if _, _, err := svc.Append([]ingest.Edge{e}); err != nil {
					failures++
					if !errors.Is(err, fault.ErrInjected) {
						t.Fatalf("append failed untyped under chaos: %v", err)
					}
					continue
				}
				acked = append(acked, e)
			}
			fault.Disarm(fault.SiteWALAppend)
			fault.Disarm(fault.SiteWALSync)
			t.Logf("appended %d edges, %d failures, %d acked", len(fresh), failures, len(acked))

			// Crash: abandon svc (no Close, so no final fsync) and leave
			// an in-flight partial frame on the final segment.
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("listing segments: %v (%d found)", err, len(segs))
			}
			sort.Strings(segs)
			f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Restart. Replay must truncate the torn tail and surface
			// every acknowledged edge; ErrCorrupt would mean the log's
			// committed history was damaged by mere append failures.
			svc2, err := ingest.NewService(walGraph(t), ix, ingest.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc2.Recover(); err != nil {
				if errors.Is(err, ingest.ErrCorrupt) {
					t.Fatalf("append chaos corrupted acknowledged history: %v", err)
				}
				t.Fatalf("recover after crash: %v", err)
			}
			cut, _, _, err := svc2.Cut()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range acked {
				if !cut.HasEdge(e.Src, e.Dst) {
					t.Fatalf("acknowledged edge (%d, %d) lost across crash-restart", e.Src, e.Dst)
				}
			}

			// Converge: the client re-sends the whole stream (at-least-once
			// delivery); duplicates are no-ops, so the live graph must end
			// at exactly base + stream.
			if _, _, err := svc2.Append(fresh); err != nil {
				t.Fatalf("re-sending the stream after restart: %v", err)
			}
			final, _, _, err := svc2.Cut()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range fresh {
				if !final.HasEdge(e.Src, e.Dst) {
					t.Fatalf("edge (%d, %d) missing after full re-send", e.Src, e.Dst)
				}
			}
			if want := g.M() + int64(len(fresh)); final.M() != want {
				t.Fatalf("converged edge count %d, want %d (duplicates must collapse)", final.M(), want)
			}
			info, err := ingest.Inspect(dir)
			if err != nil {
				t.Fatalf("inspect after convergence: %v", err)
			}
			if info.Corrupt != "" {
				t.Fatalf("log marked corrupt after convergence: %s", info.Corrupt)
			}
			if err := svc2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosWALReplayTransientFaultsRetryable flakes every replay read
// and checks the failure contract of boot recovery: the error is typed
// injection, not ErrCorrupt (an I/O error is not evidence of a damaged
// log); the service refuses traffic; and a later Recover on the same
// service succeeds once reads heal — recovery is retryable in place.
func TestChaosWALReplayTransientFaultsRetryable(t *testing.T) {
	ix, _ := fixture(t)
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := walGraph(t)
			dir := t.TempDir()
			fresh := pickFresh(t, g, 5)

			// Seed the log cleanly, before faults.
			svc1, err := ingest.NewService(g, ix, ingest.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc1.Recover(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := svc1.Append(fresh); err != nil {
				t.Fatal(err)
			}
			if err := svc1.Close(); err != nil {
				t.Fatal(err)
			}

			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteWALReplay, fault.Plan{ErrProb: 1})

			svc2, err := ingest.NewService(walGraph(t), ix, ingest.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			err = svc2.Recover()
			if err == nil {
				t.Fatal("recover with fully faulted replay reads unexpectedly succeeded")
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("replay failure untyped: %v", err)
			}
			if errors.Is(err, ingest.ErrCorrupt) {
				t.Fatalf("transient read failure misreported as corruption: %v", err)
			}
			if svc2.Ready() {
				t.Fatal("service ready after failed recovery")
			}
			if _, _, err := svc2.Append(fresh[:1]); !errors.Is(err, ingest.ErrNotReady) {
				t.Fatalf("append on unrecovered service: got %v, want ErrNotReady", err)
			}

			// Reads heal: the same service must recover in place.
			fault.Disarm(fault.SiteWALReplay)
			if err := svc2.Recover(); err != nil {
				t.Fatalf("recover after faults cleared: %v", err)
			}
			cut, seq, _, err := svc2.Cut()
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(len(fresh)) {
				t.Fatalf("recovered seq %d, want %d", seq, len(fresh))
			}
			for _, e := range fresh {
				if !cut.HasEdge(e.Src, e.Dst) {
					t.Fatalf("edge (%d, %d) missing after healed recovery", e.Src, e.Dst)
				}
			}
			if err := svc2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosWALRebuildFailureKeepsServingAndLog wires the ingestion
// service to a real reload manager whose load path always fails, and
// checks the blast radius of a failed drift-triggered rebuild: the old
// generation keeps answering exactly, the drift baseline is not
// promoted (the bound stays honest), and the WAL is untouched. Once the
// fault clears, the same rebuild path must succeed, bump the
// generation, and collapse the served drift bound back to zero.
func TestChaosWALRebuildFailureKeepsServingAndLog(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			g := walGraph(t)
			dir := t.TempDir()

			svc, err := ingest.NewService(g, ix, ingest.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Recover(); err != nil {
				t.Fatal(err)
			}
			fresh := pickFresh(t, g, 6)
			if _, _, err := svc.Append(fresh); err != nil {
				t.Fatal(err)
			}
			driftBefore := svc.DriftBound()
			if driftBefore <= 0 {
				t.Fatalf("drift bound %g after %d edges, want > 0", driftBefore, len(fresh))
			}

			sv := newServer(t, ix, serve.Config{Workers: 2, MaxPending: 128})
			defer sv.Close()
			boot := reload.Meta{Source: "boot", Algorithm: "csrplus", N: n, Rank: ix.Rank()}
			loader := func(ctx context.Context) (*reload.Candidate, error) {
				cut, seq, d0, err := svc.Cut()
				if err != nil {
					return nil, err
				}
				ix2, err := core.Precompute(cut, core.Options{Rank: ix.Rank()})
				if err != nil {
					return nil, err
				}
				ix2.SetWalSeq(seq)
				ranked, err := rankedEngine(ix2)
				if err != nil {
					return nil, err
				}
				ranked.Drift = svc.DriftFrom(d0)
				return &reload.Candidate{
					Ranked: ranked,
					Meta: reload.Meta{
						Source: "ingest-rebuild", Algorithm: "csrplus",
						N: ix2.N(), Rank: ix2.Rank(),
					},
				}, nil
			}
			man := reload.New(sv, loader, boot)
			// The commit protocol csrserver runs around every reload.
			reloadCommit := func() error {
				_, err := man.Reload(context.Background())
				if !errors.Is(err, reload.ErrCoalesced) {
					svc.RebuildDone(err == nil)
				}
				return err
			}

			fault.Arm(fault.SiteReloadLoad, fault.Plan{ErrProb: 1})
			genBefore := sv.Metrics().Generation()
			if err := reloadCommit(); err == nil {
				t.Fatal("rebuild with a fully faulted load path unexpectedly succeeded")
			}
			if got := sv.Metrics().Generation(); got != genBefore {
				t.Fatalf("failed rebuild moved the serving generation: %d -> %d", genBefore, got)
			}
			// The old generation still answers exactly.
			for i := 0; i < 20; i++ {
				q, tgt := (i*13)%n, (i*13+11)%n
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				res, err := sv.Score(ctx, []int{q}, []int{tgt})
				cancel()
				if err != nil {
					t.Fatalf("query failed after failed rebuild: %v", err)
				}
				if d := math.Abs(res.Pairs[0].Score - ref[q][tgt]); d > 1e-9 {
					t.Fatalf("query (%d, %d) off by %g after failed rebuild", q, tgt, d)
				}
			}
			// The drift baseline must not be promoted by a failed rebuild:
			// the served bound keeps covering the unrebuilt edges.
			if got := svc.DriftBound(); got != driftBefore {
				t.Fatalf("failed rebuild moved the drift bound: %g -> %g", driftBefore, got)
			}
			if st := svc.Stats(); st.Rebuilding {
				t.Fatal("service stuck in rebuilding state after failed rebuild")
			}
			// The log is intact: same records, no corruption.
			info, err := ingest.Inspect(dir)
			if err != nil {
				t.Fatalf("inspect after failed rebuild: %v", err)
			}
			if info.Corrupt != "" || info.Records != len(fresh) {
				t.Fatalf("failed rebuild disturbed the log: corrupt=%q records=%d want %d",
					info.Corrupt, info.Records, len(fresh))
			}

			// Fault clears: the same path must succeed and reset drift.
			fault.Disarm(fault.SiteReloadLoad)
			if err := reloadCommit(); err != nil {
				t.Fatalf("rebuild after faults cleared: %v", err)
			}
			if got := sv.Metrics().Generation(); got != genBefore+1 {
				t.Fatalf("successful rebuild generation %d, want %d", got, genBefore+1)
			}
			if got := svc.DriftBound(); got > 1e-12 {
				t.Fatalf("drift bound %g after committed rebuild, want ~0", got)
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
