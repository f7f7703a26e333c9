//go:build faultinject

package chaos

// chaos_map_test.go covers the two fault sites the v2 mmap path added:
// core/index.mmap (environmental — must degrade to the buffered decode,
// never fail the load) and core/index.verify (untrusted bytes — must
// fail the load and drive the recovery ladder, never serve unverified
// factors). Plus the lifetime scenario the sites exist to protect:
// mapped generations swapping under concurrent query load.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/fault"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
)

// TestChaosMmapRefusalDegradesToDecode arms the mmap site at full
// probability and loads a v2 snapshot: every load must still succeed —
// through the buffered decode fallback — and answer bitwise-identically
// to a mapped load, because an mmap refusal (ulimit, address-space
// fragmentation) is an environmental condition, not data corruption.
func TestChaosMmapRefusalDegradesToDecode(t *testing.T) {
	ix, ref := fixture(t)
	_, path, err := core.WriteSnapshot(t.TempDir(), ix)
	if err != nil {
		t.Fatal(err)
	}
	probe := 11 % ix.N()
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteIndexMap, fault.Plan{ErrProb: 1})

			loaded, err := core.LoadIndex(path)
			if err != nil {
				t.Fatalf("load with mmap refused must degrade to decode, got: %v", err)
			}
			defer loaded.Close()
			if loaded.Mapped() {
				t.Fatal("index claims to be mapped while the mmap site injects refusal")
			}
			if fault.Injected(fault.SiteIndexMap) == 0 {
				t.Fatal("chaos never fired; the test asserted nothing")
			}
			col, err := loaded.QueryOne(probe)
			if err != nil {
				t.Fatal(err)
			}
			for node, s := range col {
				if math.Abs(s-ref[probe][node]) > 0 {
					t.Fatalf("decode-fallback answer differs at node %d: %g vs %g", node, s, ref[probe][node])
				}
			}
		})
	}
}

// TestChaosVerifyFailureFailsLoadAndKeepsOldGeneration arms the verify
// site: a factor-block verification failure means the bytes cannot be
// trusted, so the load must fail outright — no decode fallback, which
// would serve the same untrusted bytes — and a reload manager pointed at
// the snapshot must keep the old generation serving exactly. Disarming
// must let the next reload succeed.
func TestChaosVerifyFailureFailsLoadAndKeepsOldGeneration(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	dir := t.TempDir()
	if _, _, err := core.WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteIndexVerify, fault.Plan{ErrProb: 1})

			if loaded, err := core.LoadIndex(filepath.Join(dir, core.SnapshotName(1))); err == nil {
				loaded.Close()
				t.Fatal("load succeeded while factor verification injects failure")
			} else if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("verify-failed load error = %v, want wrapped fault.ErrInjected", err)
			}
			if fault.Injected(fault.SiteIndexVerify) == 0 {
				t.Fatal("chaos never fired; the test asserted nothing")
			}

			sv := newServer(t, ix, serve.Config{Workers: 2, MaxPending: 128})
			defer sv.Close()
			boot := reload.Meta{Source: "boot", Algorithm: "csrplus", N: n, Rank: ix.Rank()}
			man := reload.New(sv, snapshotLoader(dir), boot)
			genBefore := sv.Metrics().Generation()
			if _, err := man.Reload(context.Background()); err == nil {
				t.Fatal("reload with failing verification unexpectedly succeeded")
			}
			if got := sv.Metrics().Generation(); got != genBefore {
				t.Fatalf("failed reload moved the serving generation: %d -> %d", genBefore, got)
			}
			// The old generation still answers exactly.
			q := 5 % n
			res, err := sv.Score(context.Background(), []int{q}, []int{(q + 3) % n})
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(res.Pairs[0].Score - ref[q][(q+3)%n]); d > 1e-9 {
				t.Fatalf("old generation answers wrong after failed reload: off by %g", d)
			}

			fault.Disarm(fault.SiteIndexVerify)
			if st, err := man.Reload(context.Background()); err != nil {
				t.Fatalf("reload after disarming verify fault: %v", err)
			} else if st.Generation != genBefore+1 {
				t.Fatalf("healthy reload produced generation %d, want %d", st.Generation, genBefore+1)
			}
		})
	}
}

// TestChaosMappedGenerationSwapUnderLoad is the lifetime scenario the
// Release plumbing exists for: generations backed by real mmapped v2
// snapshots swap repeatedly while hammer goroutines query, with engine
// latency spikes armed to keep batches in flight across swaps. Every
// answer must be exact — a premature munmap would fault or corrupt — and
// each retired generation's mapping must be released exactly once.
func TestChaosMappedGenerationSwapUnderLoad(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	dir := t.TempDir()
	if _, _, err := core.WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteBatchQuery, fault.Plan{LatencyProb: 0.4, Latency: 200 * time.Microsecond})

			var mu sync.Mutex
			live := make(map[*core.Index]bool) // mapped generations not yet released
			loader := func(ctx context.Context) (*reload.Candidate, error) {
				mapped, _, _, err := core.RecoverSnapshot(dir)
				if err != nil {
					return nil, err
				}
				ranked, err := rankedEngine(mapped)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				live[mapped] = true
				mu.Unlock()
				return &reload.Candidate{
					Ranked: ranked,
					Meta:   reload.Meta{Source: "snapshot", Algorithm: "csrplus", N: mapped.N()},
					Release: func() {
						mu.Lock()
						if !live[mapped] {
							t.Error("generation released twice")
						}
						delete(live, mapped)
						mu.Unlock()
						mapped.Close()
					},
				}, nil
			}

			sv := newServer(t, ix, serve.Config{Workers: 4, MaxPending: 256})
			defer sv.Close()
			man := reload.New(sv, loader, reload.Meta{Source: "boot"})

			stop := make(chan struct{})
			var hwg sync.WaitGroup
			for w := 0; w < 4; w++ {
				hwg.Add(1)
				go func(w int) {
					defer hwg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						q := (w*37 + i*11) % n
						tgt := (q + 29) % n
						res, err := sv.Score(context.Background(), []int{q}, []int{tgt})
						if err != nil {
							t.Errorf("seed %d: query failed during mapped swaps: %v", seed, err)
							return
						}
						if d := math.Abs(res.Pairs[0].Score - ref[q][tgt]); d > 1e-9 {
							t.Errorf("seed %d: answer off by %g during mapped swaps — stale or torn factors", seed, d)
							return
						}
					}
				}(w)
			}

			const swaps = 6
			for i := 0; i < swaps; i++ {
				if _, err := man.Reload(context.Background()); err != nil {
					t.Fatalf("seed %d: mapped reload %d: %v", seed, i, err)
				}
			}
			close(stop)
			hwg.Wait()

			mu.Lock()
			defer mu.Unlock()
			if len(live) != 1 {
				t.Fatalf("seed %d: %d mapped generations still pinned after %d swaps, want exactly the serving one",
					seed, len(live), swaps)
			}
			for serving := range live {
				serving.Close() // test cleanup; in production the process owns the last pin
			}
		})
	}
}
