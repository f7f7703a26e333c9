package reload

// mapped_swap_test.go pins the v2 acceptance property end to end: an
// index served from a memory-mapped snapshot answers bitwise-identically
// to the v1 decode of the same factors — including THROUGH reload swaps
// under concurrent query load, where a lifetime bug (early munmap, torn
// generation) would surface as a wrong score or a crash — through the
// K=1 and K=3 routers of zero-copy shard views csrserver serves from.
// Run with -race.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/topk"
)

func TestMappedReloadSwapBitwiseIdenticalToV1(t *testing.T) {
	g, err := graph.ErdosRenyi(80, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	n := ix.N()

	// The reference: the same index through the heap encode/decode path.
	var heap bytes.Buffer
	if _, err := ix.WriteTo(&heap); err != nil {
		t.Fatal(err)
	}
	refIx, err := core.ReadIndex(&heap)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([][]float64, n)
	for q := range ref {
		if ref[q], err = refIx.QueryOne(q); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	if _, _, err := core.WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	pinned := 0 // mapped generations not yet released
	loader := func(ctx context.Context) (*Candidate, error) {
		mapped, _, _, err := core.RecoverSnapshot(dir)
		if err != nil {
			return nil, err
		}
		rt, err := shard.NewRouterFromIndex(mapped, 1)
		if err != nil {
			return nil, err
		}
		if mapped.Mapped() {
			mu.Lock()
			pinned++
			mu.Unlock()
		}
		return &Candidate{
			Ranked: rt.Ranked(),
			Meta:   Meta{Source: "snapshot"},
			Release: func() {
				if mapped.Mapped() {
					mu.Lock()
					pinned--
					mu.Unlock()
				}
				mapped.Close()
			},
		}, nil
	}

	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewRanked(rt.Ranked(), serve.Config{Workers: 4, MaxPending: 256})
	defer sv.Close()
	man := New(sv, loader, Meta{Source: "boot"})

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
				q := (w*41 + i*13) % n
				tgt := (q + 7) % n
				res, err := sv.Score(context.Background(), []int{q}, []int{tgt})
				if err != nil {
					t.Errorf("query during mapped swaps: %v", err)
					return
				}
				if got, want := res.Pairs[0].Score, ref[q][tgt]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("mapped answer not bitwise-identical to v1 decode: (%d,%d) = %x, want %x",
						q, tgt, got, want)
					return
				}
			}
		}(w)
	}

	const swaps = 5
	for i := 0; i < swaps; i++ {
		if _, err := man.Reload(context.Background()); err != nil {
			t.Fatalf("mapped reload %d: %v", i, err)
		}
	}
	close(stop)
	hwg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if pinned > 1 {
		t.Fatalf("%d mapped generations still pinned after %d swaps, want at most the serving one", pinned, swaps)
	}
	if pinned == 0 {
		// mmap unavailable on this platform: the swap/drain contract was
		// still exercised through the decode path above.
		t.Logf("mmap unavailable here; test ran against the decode fallback")
	}

	// Full-column sweep on a freshly mapped (or fallback-decoded) load:
	// every entry of every column bitwise-equal to the v1 reference.
	final, err := core.LoadIndex(fmt.Sprintf("%s/%s", dir, core.SnapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	for q := 0; q < n; q++ {
		col, err := final.QueryOne(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range col {
			if math.Float64bits(col[i]) != math.Float64bits(ref[q][i]) {
				t.Fatalf("column %d entry %d: mapped %x, v1 %x", q, i, col[i], ref[q][i])
			}
		}
	}
}

// TestViewRouterReloadUnderFire is the lifetime csrserver relies on: each
// generation is a fresh router of zero-copy shard views over one mapped
// snapshot, and Candidate.Release munmaps it. Under concurrent queries
// and repeated reloads no request may fail or see a wrong bit, no query
// may run on a generation whose mapping is closed, and every retired
// mapping is closed exactly once — after its generation drained.
func TestViewRouterReloadUnderFire(t *testing.T) {
	g, err := graph.ErdosRenyi(80, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	n := ix.N()
	ref := make([][]float64, n)
	for q := range ref {
		if ref[q], err = ix.QueryOne(q); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, _, err := core.WriteSnapshot(dir, ix); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			// One lifetime record per generation loaded, in load order.
			type lifetime struct {
				ix       *core.Index
				inflight atomic.Int64
				closes   atomic.Int64
			}
			var (
				mu   sync.Mutex
				gens []*lifetime
			)
			loader := func(context.Context) (*Candidate, error) {
				mapped, _, _, err := core.RecoverSnapshot(dir)
				if err != nil {
					return nil, err
				}
				rt, err := shard.NewRouterFromIndex(mapped, k)
				if err != nil {
					return nil, err
				}
				lt := &lifetime{ix: mapped}
				mu.Lock()
				gens = append(gens, lt)
				mu.Unlock()
				// csrserver's wiring, each engine call counted in and out.
				ranked := rt.Ranked()
				enter := func() func() {
					lt.inflight.Add(1)
					if lt.closes.Load() != 0 {
						t.Error("query admitted on a generation whose mapping is closed")
					}
					return func() { lt.inflight.Add(-1) }
				}
				topK, scores := ranked.TopK, ranked.Scores
				ranked.TopK = func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, serve.TopKProvenance, error) {
					defer enter()()
					return topK(ctx, queries, k, rank)
				}
				ranked.Scores = func(ctx context.Context, queries, targets []int) (*dense.Mat, error) {
					defer enter()()
					return scores(ctx, queries, targets)
				}
				return &Candidate{
					Ranked: ranked,
					Meta:   Meta{Source: "snapshot"},
					Release: func() {
						if busy := lt.inflight.Load(); busy != 0 {
							t.Errorf("mapping released with %d queries still in flight", busy)
						}
						lt.closes.Add(1)
						mapped.Close()
					},
				}, nil
			}

			boot, err := loader(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sv := serve.NewRanked(boot.Ranked, serve.Config{Workers: 4, MaxPending: 256})
			man := New(sv, loader, boot.Meta)
			man.SetBootRelease(boot.Release)

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
						q := (w*41 + i*13) % n
						tgt := (q + 7) % n
						res, err := sv.Score(context.Background(), []int{q}, []int{tgt})
						if err != nil {
							t.Errorf("query during view-router swaps: %v", err)
							return
						}
						if got, want := res.Pairs[0].Score, ref[q][tgt]; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("view-router answer (%d,%d) = %x, want %x", q, tgt, got, want)
							return
						}
						top, err := sv.Search(context.Background(), []int{q}, 3)
						if err != nil {
							t.Errorf("top-k during view-router swaps: %v", err)
							return
						}
						for _, m := range top.Matches {
							if want := ref[q][m.Node]; math.Float64bits(m.Score) != math.Float64bits(want) {
								t.Errorf("view-router top-k of %d scores node %d %x, want %x", q, m.Node, m.Score, want)
								return
							}
						}
					}
				}(w)
			}
			const swaps = 5
			for i := 0; i < swaps; i++ {
				if _, err := man.Reload(context.Background()); err != nil {
					t.Fatalf("reload %d: %v", i, err)
				}
			}
			close(stop)
			hwg.Wait()
			sv.Close()

			if len(gens) != swaps+1 {
				t.Fatalf("%d generations loaded, want %d", len(gens), swaps+1)
			}
			for i, lt := range gens {
				want := int64(1)
				if i == swaps {
					want = 0 // still serving: the manager never frees the live generation
				}
				if got := lt.closes.Load(); got != want {
					t.Errorf("generation %d mapping closed %d times, want %d", i+1, got, want)
				}
			}
			gens[swaps].ix.Close() // the server is closed: the live mapping is ours to free
		})
	}
}

// TestShardOfMappedIndexIsAView pins what the view routers above rest on:
// slicing a mapped index allocates the shard header and nothing else, and
// two shards of one range alias the same mapped factor rows.
func TestShardOfMappedIndexIsAView(t *testing.T) {
	g, err := graph.ErdosRenyi(80, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []dense.Kind{dense.F64, dense.I8} {
		q, err := ix.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		_, path, err := core.WriteSnapshot(t.TempDir(), q)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := core.LoadIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		if !mapped.Mapped() {
			t.Skip("mmap unavailable here")
		}
		// The header, plus one matrix (or typed-view) header per factor.
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := mapped.Shard(0, mapped.N()); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Errorf("%v tier: Shard of a mapped index makes %v allocations; a view needs at most 3", tier, allocs)
		}
		a, _ := mapped.Shard(10, 20)
		b, _ := mapped.Shard(10, 20)
		if tier == dense.F64 && &a.URow(10)[0] != &b.URow(10)[0] {
			t.Error("two shards of one mapped range do not alias the same U rows: Shard copied")
		}
	}
}
