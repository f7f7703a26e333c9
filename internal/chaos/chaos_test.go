//go:build faultinject

package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/fault"
	"csrplus/internal/graph"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
)

// defaultSeeds is the fixed seed matrix every chaos test iterates. CI
// runs one shard per seed (CHAOS_SEED=n narrows a run to that seed), so
// a red shard names the exact fault sequence that broke an invariant.
var defaultSeeds = []int64{101, 202, 303}

func seeds(t *testing.T) []int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not an integer: %v", s, err)
		}
		return []int64{v}
	}
	return defaultSeeds
}

// The shared fixture: one CSR+ index over a random graph, plus its exact
// full-rank answer for every query node — the ground truth all chaos
// assertions compare against. Built once, with no faults armed.
var (
	fixtureOnce sync.Once
	fixtureIx   *core.Index
	fixtureRef  [][]float64 // ref[q][node] = exact CoSimRank(q, node)
	fixtureErr  error
)

func fixture(t *testing.T) (*core.Index, [][]float64) {
	t.Helper()
	fixtureOnce.Do(func() {
		g, err := graph.ErdosRenyi(120, 700, 42)
		if err != nil {
			fixtureErr = err
			return
		}
		ix, err := core.Precompute(g, core.Options{Rank: 8})
		if err != nil {
			fixtureErr = err
			return
		}
		ref := make([][]float64, ix.N())
		for q := range ref {
			if ref[q], err = ix.QueryOne(q); err != nil {
				fixtureErr = err
				return
			}
		}
		fixtureIx, fixtureRef = ix, ref
	})
	if fixtureErr != nil {
		t.Fatalf("building chaos fixture: %v", fixtureErr)
	}
	return fixtureIx, fixtureRef
}

// rankedEngine is the generation csrserver serves ix through: the K=1
// router's top-k and targeted scores (Router.Ranked).
func rankedEngine(ix *core.Index) (serve.Ranked, error) {
	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err != nil {
		return serve.Ranked{}, err
	}
	return rt.Ranked(), nil
}

// newServer serves ix through rankedEngine.
func newServer(t *testing.T, ix *core.Index, cfg serve.Config) *serve.Server {
	t.Helper()
	e, err := rankedEngine(ix)
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewRanked(e, cfg)
}

// acceptableError reports whether err is one of the typed failures a
// client may legitimately observe under chaos. Anything else — a raw I/O
// error, a nil-map panic surfaced as text, a mangled wrap — is a bug.
func acceptableError(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, serve.ErrOverloaded) ||
		errors.Is(err, context.DeadlineExceeded)
}

// TestChaosQueryPathAnswersOrFailsTyped hammers the serving path while
// engine calls randomly fail and stall. Invariants: every request
// resolves (answer or typed error — no drops, no hangs), and every answer
// is correct — within its advertised error bound, which is 0 at full rank
// on this exact index.
func TestChaosQueryPathAnswersOrFailsTyped(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteBatchQuery, fault.Plan{
				ErrProb: 0.25, LatencyProb: 0.25, Latency: 100 * time.Microsecond,
			})

			sv := newServer(t, ix, serve.Config{
				Workers:    4,
				MaxPending: 256,
				Degrade:    serve.DegradeConfig{Rank: 3},
			})
			defer sv.Close()

			const goroutines, perG = 6, 30
			var wg sync.WaitGroup
			var answered, failed atomic.Int64
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						q := (g*31 + i*7) % n
						targets := []int{(q + 1) % n, (q + 17) % n, (q + 53) % n}
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						res, err := sv.Score(ctx, []int{q}, targets)
						cancel()
						if err != nil {
							failed.Add(1)
							if !acceptableError(err) {
								t.Errorf("seed %d: unexpected error class: %v", seed, err)
							}
							continue
						}
						answered.Add(1)
						tol := 1e-9 + res.Info.ErrorBound
						for _, p := range res.Pairs {
							if d := math.Abs(p.Score - ref[p.Query][p.Target]); d > tol {
								t.Errorf("seed %d: corrupt response: pair (%d,%d) = %g, want %g within %g",
									seed, p.Query, p.Target, p.Score, ref[p.Query][p.Target], tol)
							}
						}
					}
				}(g)
			}
			wg.Wait()

			if got := answered.Load() + failed.Load(); got != goroutines*perG {
				t.Fatalf("dropped in-flight requests: %d outcomes for %d requests", got, goroutines*perG)
			}
			if answered.Load() == 0 {
				t.Fatalf("no request survived the chaos; the fault plan is too hostile to test anything")
			}
			if fault.Injected(fault.SiteBatchQuery) == 0 {
				t.Fatalf("chaos never fired; the test asserted nothing")
			}
		})
	}
}

func snapshotLoader(dir string) reload.LoadFunc {
	return func(ctx context.Context) (*reload.Candidate, error) {
		ix, snap, recovered, err := core.RecoverSnapshot(dir)
		if err != nil {
			return nil, err
		}
		ranked, err := rankedEngine(ix)
		if err != nil {
			return nil, err
		}
		return &reload.Candidate{
			Ranked: ranked,
			Meta: reload.Meta{
				Source: "snapshot", Path: snap.Path, SnapshotGen: snap.Gen,
				Recovered: recovered, Algorithm: "csrplus", N: ix.N(), Rank: ix.Rank(),
			},
		}, nil
	}
}

// TestChaosFailedReloadKeepsOldGenerationServing points a reload manager
// at a snapshot source whose reads always fail, while a hammer goroutine
// queries continuously. The failing reload must report failure and
// leave the serving generation untouched — every concurrent query
// answers exactly throughout. Disarming the site must let the next
// reload succeed and bump the generation.
func TestChaosFailedReloadKeepsOldGenerationServing(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	dir := t.TempDir()
	if _, _, err := core.WriteSnapshot(dir, ix); err != nil {
		t.Fatalf("seeding snapshot dir: %v", err)
	}
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()

			sv := newServer(t, ix, serve.Config{Workers: 2, MaxPending: 128})
			defer sv.Close()
			boot := reload.Meta{Source: "boot", Algorithm: "csrplus", N: n, Rank: ix.Rank()}
			man := reload.New(sv, snapshotLoader(dir), boot)

			stop := make(chan struct{})
			var hwg sync.WaitGroup
			hwg.Add(1)
			go func() {
				defer hwg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					q := (i * 13) % n
					tgt := (q + 11) % n
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					res, err := sv.Score(ctx, []int{q}, []int{tgt})
					cancel()
					if err != nil {
						t.Errorf("query failed during reload chaos: %v", err)
						return
					}
					if d := math.Abs(res.Pairs[0].Score - ref[q][tgt]); d > 1e-9 {
						t.Errorf("query answered wrong during reload chaos: (%d,%d) off by %g", q, tgt, d)
						return
					}
				}
			}()

			fault.Arm(fault.SiteIndexRead, fault.Plan{ErrProb: 1})
			genBefore := sv.Metrics().Generation()
			if _, err := man.Reload(context.Background()); err == nil {
				t.Fatalf("reload with a fully faulted snapshot read unexpectedly succeeded")
			}
			if got := sv.Metrics().Generation(); got != genBefore {
				t.Fatalf("failed reload moved the serving generation: %d -> %d", genBefore, got)
			}
			if got := sv.Metrics().ReloadFailures(); got != 1 {
				t.Errorf("reload failures = %d, want 1", got)
			}

			fault.Disarm(fault.SiteIndexRead)
			st, err := man.Reload(context.Background())
			if err != nil {
				t.Fatalf("reload after disarming the fault: %v", err)
			}
			if st.Generation != genBefore+1 {
				t.Errorf("healthy reload produced generation %d, want %d", st.Generation, genBefore+1)
			}
			if st.Source != "snapshot" {
				t.Errorf("healthy reload source = %q, want snapshot", st.Source)
			}

			close(stop)
			hwg.Wait()
		})
	}
}

// TestChaosDegradedAnswersStayWithinAdvertisedBound forces every request
// onto the degraded path (a deadline budget no request can meet at full
// rank) with engine latency spikes armed, and checks the contract the
// paper's truncation analysis promises: the response is tagged with the
// effective rank and a bound, and every returned score is within that
// bound of the exact full-rank answer.
func TestChaosDegradedAnswersStayWithinAdvertisedBound(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	const degradedRank = 2
	wantBound := ix.TruncationBound(degradedRank)
	if wantBound <= 0 {
		t.Fatalf("fixture has no truncation error at rank %d; the bound check would be vacuous", degradedRank)
	}
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fault.Enable(seed)
			defer fault.Disable()
			fault.Arm(fault.SiteBatchQuery, fault.Plan{LatencyProb: 0.5, Latency: 200 * time.Microsecond})

			sv := newServer(t, ix, serve.Config{
				Workers:    2,
				MaxPending: 128,
				Timeout:    5 * time.Second,
				Degrade:    serve.DegradeConfig{Rank: degradedRank, MinBudget: time.Hour},
			})
			defer sv.Close()

			for i := 0; i < 25; i++ {
				q := (i*17 + int(seed)) % n
				res, err := sv.Search(context.Background(), []int{q}, 5)
				if err != nil {
					t.Fatalf("degraded search %d: %v", i, err)
				}
				info := res.Info
				if !info.Degraded || info.EffectiveRank != degradedRank || info.FullRank != ix.Rank() {
					t.Fatalf("budget-pressured answer not tagged degraded as configured: %+v", info)
				}
				if math.Abs(info.ErrorBound-wantBound) > 1e-12 {
					t.Fatalf("advertised bound %g, want engine's TruncationBound(%d) = %g",
						info.ErrorBound, degradedRank, wantBound)
				}
				for _, m := range res.Matches {
					if d := math.Abs(m.Score - ref[q][m.Node]); d > info.ErrorBound+1e-12 {
						t.Errorf("degraded score outside advertised bound: query %d node %d: |%g - %g| = %g > %g",
							q, m.Node, m.Score, ref[q][m.Node], d, info.ErrorBound)
					}
				}
			}
		})
	}
}

// TestChaosTornSnapshotWritesAlwaysRecoverable tears and fails snapshot
// publishes — short index writes, failed fsyncs, failed placements under
// the generation name — and after every attempt requires RecoverSnapshot
// to produce an intact index that answers exactly, and a failed attempt to
// leave the directory serving its previous newest generation. Disarming
// must restore clean publishes, each the newest generation.
func TestChaosTornSnapshotWritesAlwaysRecoverable(t *testing.T) {
	ix, ref := fixture(t)
	n := ix.N()
	probe := 7 % n
	for _, seed := range seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			newest, _, err := core.WriteSnapshot(dir, ix)
			if err != nil {
				t.Fatalf("seeding snapshot dir: %v", err)
			}
			fault.Enable(seed)
			defer fault.Disable()
			for _, phase := range []map[string]fault.Plan{
				{
					fault.SiteIndexWrite: {TornProb: 0.4, TornBytes: 128, ErrProb: 0.2},
					fault.SiteIndexSync:  {ErrProb: 0.3},
				},
				// Written and read back, then refused its name.
				{fault.SiteSnapshotLink: {ErrProb: 0.5}},
			} {
				for site, plan := range phase {
					fault.Arm(site, plan)
				}
				for i := 0; i < 8; i++ {
					gen, _, werr := core.WriteSnapshot(dir, ix)
					if werr == nil {
						newest = gen
					}
					rix, snap, recovered, err := core.RecoverSnapshot(dir)
					if err != nil {
						t.Fatalf("write attempt %d (err=%v) left the snapshot dir unrecoverable: %v", i, werr, err)
					}
					if recovered || snap.Gen != newest {
						t.Fatalf("write attempt %d (err=%v): recovery serves generation %d (recovered=%v), want the newest published, %d", i, werr, snap.Gen, recovered, newest)
					}
					if rix.N() != n {
						t.Fatalf("recovered index has n=%d, want %d", rix.N(), n)
					}
					col, err := rix.QueryOne(probe)
					if err != nil {
						t.Fatalf("recovered index cannot answer: %v", err)
					}
					for node, s := range col {
						if math.Abs(s-ref[probe][node]) > 1e-12 {
							t.Fatalf("recovered index answers differently at node %d: %g vs %g", node, s, ref[probe][node])
						}
					}
				}
				var fired int64
				for site := range phase {
					fired += fault.Injected(site)
					fault.Disarm(site)
				}
				if fired == 0 {
					t.Fatalf("chaos never fired at %v; the test asserted nothing", phase)
				}
			}

			gen, path, err := core.WriteSnapshot(dir, ix)
			if err != nil {
				t.Fatalf("clean publish after disarm: %v", err)
			}
			gotPath, gotGen, err := core.CurrentSnapshot(dir)
			if err != nil || gotGen != gen || gotPath != path {
				t.Fatalf("newest after clean publish: (%q, %d, %v), want (%q, %d)", gotPath, gotGen, err, path, gen)
			}
			if _, snap, recovered, err := core.RecoverSnapshot(dir); err != nil || recovered || snap.Gen != gen {
				t.Fatalf("recovery after clean publish: gen=%d recovered=%v err=%v, want gen=%d recovered=false",
					snap.Gen, recovered, err, gen)
			}
		})
	}
}
