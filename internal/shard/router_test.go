package shard_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/par"
	"csrplus/internal/shard"
	"csrplus/internal/shard/shardtest"
	"csrplus/internal/topk"
)

const testN, testRank = 151, 5

// randomGraph builds a connected pseudo-random digraph: a ring for
// reachability plus seeded random edges. Different seeds give graphs of
// identical shape parameters (n, default damping) but different factors —
// what a rolling reload swaps between.
func randomGraph(t testing.TB, n int, seed int64) *csrplus.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, 5*n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
		for e := 0; e < 4; e++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
	}
	g, err := csrplus.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testEngineIndex builds a CSR+ engine and returns it with its underlying
// index, so router answers are compared against the exact factors they
// were sliced from.
func testEngineIndex(t testing.TB, seed int64) (*csrplus.Engine, *core.Index) {
	t.Helper()
	eng, err := csrplus.NewEngine(randomGraph(t, testN, seed), csrplus.Options{Rank: testRank})
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := eng.CoreIndex()
	if !ok {
		t.Fatal("CSR+ engine without a core index")
	}
	return eng, ix
}

// shardCounts returns the shard counts the equivalence suite runs at.
// SHARD_K pins a single count — the hook CI's shard matrix uses.
func shardCounts(t testing.TB) []int {
	if s := os.Getenv("SHARD_K"); s != "" {
		k, err := strconv.Atoi(s)
		if err != nil || k < 1 {
			t.Fatalf("bad SHARD_K %q", s)
		}
		return []int{k}
	}
	return []int{1, 2, 3, 7}
}

// querySets covers the shapes that exercise distinct code paths: single
// query, boundary nodes, multi-source, and a set with duplicates (which
// must weigh double in aggregation, exactly as Engine.TopKMulti).
func querySets() [][]int {
	return [][]int{
		{7},
		{0},
		{testN - 1},
		{0, testN - 1},
		{13, 42, 99},
		{3, 50, 50, 120},
	}
}

// TestRouterMatchesMonolithic is the central equivalence property: at
// every shard count, every worker count and every query shape, the
// router's scatter-gather answers are bitwise-identical to the
// single-engine path — scores, top-k lists, and bounds.
func TestRouterMatchesMonolithic(t *testing.T) {
	eng, ix := testEngineIndex(t, 1)
	for _, workers := range []int{1, 0} { // serial and GOMAXPROCS fan-out
		prev := par.SetMaxWorkers(workers)
		t.Cleanup(func() { par.SetMaxWorkers(prev) })
		for _, k := range shardCounts(t) {
			rt, err := shard.NewRouterFromIndex(ix, k)
			if err != nil {
				t.Fatal(err)
			}
			assertRouterMatches(t, rt, eng, ix)
		}
		par.SetMaxWorkers(prev)
	}
}

// TestRouterUnevenBoundaries re-runs the equivalence property over
// pathological partitions: single-node shards, a giant middle shard, and
// boundaries that cut right through popular query nodes.
func TestRouterUnevenBoundaries(t *testing.T) {
	eng, ix := testEngineIndex(t, 1)
	for _, bounds := range [][]int{
		{0, 1, 2, 75, 150, testN},
		{0, 13, 14, 50, 51, testN},
		{0, testN - 1, testN},
	} {
		shards := make([]*core.IndexShard, len(bounds)-1)
		for s := range shards {
			var err error
			if shards[s], err = ix.Shard(bounds[s], bounds[s+1]); err != nil {
				t.Fatal(err)
			}
		}
		rt, err := shard.NewRouter(shards)
		if err != nil {
			t.Fatal(err)
		}
		assertRouterMatches(t, rt, eng, ix)
	}
}

func assertRouterMatches(t *testing.T, rt *shard.Router, eng *csrplus.Engine, ix *core.Index) {
	t.Helper()
	ctx := context.Background()
	for _, queries := range querySets() {
		want, err := ix.QueryRankInto(ctx, queries, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardtest.Columns(ctx, rt, queries)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("K=%d queries=%v: scores differ from monolithic", rt.K(), queries)
		}
		for _, k := range []int{1, 10, testN} {
			items, err := rt.TopK(ctx, queries, k)
			if err != nil {
				t.Fatal(err)
			}
			var want []csrplus.Match
			if len(queries) == 1 {
				want, err = eng.TopK(queries[0], k)
			} else {
				want, err = eng.TopKMulti(queries, k)
			}
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, rt.K(), queries, items, want)
		}
	}
	if got, want := rt.TruncationBound(0), ix.TruncationBound(0); got != want {
		t.Fatalf("K=%d TruncationBound = %v, want %v", rt.K(), got, want)
	}
}

func assertSameMatches(t *testing.T, k int, queries []int, items []topk.Item, want []csrplus.Match) {
	t.Helper()
	if len(items) != len(want) {
		t.Fatalf("K=%d queries=%v: %d matches, want %d", k, queries, len(items), len(want))
	}
	for i := range items {
		if items[i].Node != want[i].Node || items[i].Score != want[i].Score {
			t.Fatalf("K=%d queries=%v match %d: got (%d, %v), want (%d, %v)",
				k, queries, i, items[i].Node, items[i].Score, want[i].Node, want[i].Score)
		}
	}
}

func TestRouterValidation(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	if _, err := shard.NewRouter(nil); !errors.Is(err, shard.ErrPlan) {
		t.Fatalf("empty shard set: err = %v, want ErrPlan", err)
	}
	a, err := ix.Shard(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.Shard(60, testN) // gap [50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.NewRouter([]*core.IndexShard{a, b}); !errors.Is(err, shard.ErrShard) {
		t.Fatalf("gapped shards: err = %v, want ErrShard", err)
	}
	c, err := ix.Shard(0, 50) // does not reach n
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.NewRouter([]*core.IndexShard{c}); !errors.Is(err, shard.ErrShard) {
		t.Fatalf("short coverage: err = %v, want ErrShard", err)
	}

	rt, err := shard.NewRouterFromIndex(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shardtest.Columns(context.Background(), rt, nil); !errors.Is(err, core.ErrParams) {
		t.Fatalf("empty queries: err = %v, want ErrParams", err)
	}
	if _, err := shardtest.Columns(context.Background(), rt, []int{testN}); !errors.Is(err, core.ErrQuery) {
		t.Fatalf("out-of-range query: err = %v, want ErrQuery", err)
	}
	// Scores names the list that is wrong: an empty target list is not an
	// "empty query set".
	for _, tc := range []struct {
		queries, targets []int
		is               error
		names            string
	}{
		{[]int{1}, nil, core.ErrParams, "empty target set"},
		{nil, []int{2}, core.ErrParams, "empty query set"},
		{[]int{1}, []int{testN}, core.ErrQuery, "target node"},
		{[]int{-1}, []int{2}, core.ErrQuery, "query node"},
	} {
		if _, err := rt.Scores(context.Background(), tc.queries, tc.targets); !errors.Is(err, tc.is) || !strings.Contains(err.Error(), tc.names) {
			t.Fatalf("Scores(%v, %v): err = %v, want %v naming the %s", tc.queries, tc.targets, err, tc.is, tc.names)
		}
	}
	if items, err := rt.TopK(context.Background(), []int{1}, 0); err != nil || items != nil {
		t.Fatalf("k=0: items=%v err=%v, want nil, nil", items, err)
	}
	if items, err := rt.TopK(context.Background(), []int{1}, math.MaxInt); err != nil || len(items) != testN-1 {
		t.Fatalf("k=MaxInt: %d items, err=%v, want every other node", len(items), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.TopK(ctx, []int{1}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
	// Scores shares the entry: refused before any slot is asked, so the
	// error is ctx's own, not one a slot's gather wrapped.
	if _, err := rt.Scores(ctx, []int{1}, []int{2}); err != context.Canceled {
		t.Fatalf("Scores on a cancelled ctx: err = %v, want bare context.Canceled", err)
	}
}

// localRouter assembles a router over k in-process slots cut from ix and
// returns the slots too, so a test can swap one's factors the way a worker's
// reload does (shard.Local.Swap).
func localRouter(t testing.TB, ix *core.Index, k int) (*shard.Router, []*shard.Local) {
	t.Helper()
	shards, err := shard.Split(ix, k)
	if err != nil {
		t.Fatal(err)
	}
	locals := make([]*shard.Local, len(shards))
	slots := make([]shard.Slot, len(shards))
	for s, sh := range shards {
		locals[s] = shard.NewLocal(sh)
		slots[s] = locals[s]
	}
	rt, err := shard.NewRouterSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	return rt, locals
}

// TestMixedGenerationsStayExact pins the mid-roll contract: after
// swapping only some slots from index A's factors to index B's, the
// router's answers are bitwise those of a fresh router assembled over the
// same piecewise factor set — a consistent index, never torn state — and
// a completed roll converges to index B's monolithic answers.
func TestMixedGenerationsStayExact(t *testing.T) {
	_, ixA := testEngineIndex(t, 1)
	engB, ixB := testEngineIndex(t, 2)
	rt, locals := localRouter(t, ixA, 3)
	plan := rt.Plan()
	sliceOf := func(ix *core.Index, s int) *core.IndexShard {
		lo, hi := plan.Range(s)
		sh, err := ix.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	if gen := locals[0].Swap(sliceOf(ixB, 0)); gen != 2 {
		t.Fatalf("first swap installed generation %d, want 2", gen)
	}
	if gens := rt.Generations(); gens[0] != 2 || gens[1] != 1 || gens[2] != 1 {
		t.Fatalf("generations = %v, want [2 1 1]", gens)
	}
	ref, err := shard.NewRouter([]*core.IndexShard{sliceOf(ixB, 0), sliceOf(ixA, 1), sliceOf(ixA, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, queries := range querySets() {
		want, err := shardtest.Columns(ctx, ref, queries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shardtest.Columns(ctx, rt, queries)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("queries=%v: mid-roll answer differs from the piecewise reference", queries)
		}
	}
	for s := 1; s < 3; s++ {
		locals[s].Swap(sliceOf(ixB, s))
	}
	assertRouterMatches(t, rt, engB, ixB)
}

// TestConcurrentQueriesDuringSwaps hammers the router from many
// goroutines while another goroutine continuously swaps identical
// factors in (an identity roll): under -race this pins the lock-free
// snapshot discipline, and because the factors never change, every
// response must stay bitwise-equal to the monolithic answer throughout.
func TestConcurrentQueriesDuringSwaps(t *testing.T) {
	eng, ix := testEngineIndex(t, 1)
	rt, locals := localRouter(t, ix, 3)
	queries := []int{3, 50, 120}
	wantTopK, err := eng.TopKMulti(queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantMat, err := ix.QueryRankInto(context.Background(), queries, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var roller sync.WaitGroup
	roller.Add(1)
	go func() {
		defer roller.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := i % rt.K()
			lo, hi := rt.Plan().Range(s)
			sh, err := ix.Shard(lo, hi)
			if err != nil {
				t.Error(err)
				return
			}
			locals[s].Swap(sh)
		}
	}()
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 200; i++ {
				items, err := rt.TopK(context.Background(), queries, 10)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range items {
					if items[j].Node != wantTopK[j].Node || items[j].Score != wantTopK[j].Score {
						t.Errorf("top-k diverged during identity roll at %d", j)
						return
					}
				}
				got, err := shardtest.Columns(context.Background(), rt, queries)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(wantMat, 0) {
					t.Error("scores diverged during identity roll")
					return
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	roller.Wait()
}

// TestRouterQuantizedBound pins the quantized-tier error bound through
// the router: at every shard count the router's TruncationBound equals
// the monolithic quantized index's, which carries the quantisation term.
// A swap must invalidate the cached bound.
func TestRouterQuantizedBound(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	q, err := ix.Quantize(core.TierI8)
	if err != nil {
		t.Fatal(err)
	}
	if q.QuantizationBound() <= 0 {
		t.Fatal("quantized index reports a zero quantisation bound")
	}
	for _, k := range shardCounts(t) {
		rt, err := shard.NewRouterFromIndex(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rt.TruncationBound(0), q.TruncationBound(0); got != want {
			t.Fatalf("K=%d quantized TruncationBound = %v, want %v", k, got, want)
		}
	}

	// Rolling the quantized shards out for exact ones drops the quant
	// term: the cached bound must follow the generation vector.
	rt, locals := localRouter(t, q, 2)
	if got, want := rt.TruncationBound(0), q.QuantizationBound(); got != want {
		t.Fatalf("full-rank bound %v, want %v", got, want)
	}
	for s := 0; s < rt.K(); s++ {
		lo, hi := rt.Plan().Range(s)
		sh, err := ix.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		locals[s].Swap(sh)
	}
	if got := rt.TruncationBound(0); got != 0 {
		t.Fatalf("exact-tier full-rank bound %v, want 0 after roll", got)
	}
}

// TestTruncationBoundHitPathNoAlloc pins the bound cache's hot path: once
// an entry for the current generation vector exists, comparing the vector
// and returning the cached bound must not allocate — the comparison runs
// on every degraded-tagging decision, so an allocation here would turn
// the serving fast path into garbage-collector pressure.
func TestTruncationBoundHitPathNoAlloc(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	shards, err := shard.Split(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PrimeBound(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = rt.TruncationBound(0)
	}); allocs != 0 {
		t.Fatalf("TruncationBound cache hit allocates %.1f times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = rt.MissingShardBound()
	}); allocs != 0 {
		t.Fatalf("MissingShardBound cache hit allocates %.1f times per call", allocs)
	}
}

// partialDown is a slot whose partial top-k cannot be fetched, the way a
// wire client reports a dead worker; its U rows still answer.
type partialDown struct{ *shard.Local }

func (partialDown) PartialTopK(context.Context, []int, *dense.Mat, int, int) ([]topk.Item, error) {
	return nil, shard.ErrSlotDown
}

// TestRankedIsTheServingGeneration holds Router.Ranked — the generation
// csrserver serves every mode through — to the router's own calls: its
// top-k is TopKTagged with the missing-shard provenance carried over, its
// scores are Scores, its bound TruncationBound.
func TestRankedIsTheServingGeneration(t *testing.T) {
	_, ix := testEngineIndex(t, 1)
	ctx := context.Background()
	shards, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, down := range []bool{false, true} {
		slots := make([]shard.Slot, len(shards))
		for s, sh := range shards {
			slots[s] = shard.NewLocal(sh)
		}
		if down {
			slots[2] = partialDown{shard.NewLocal(shards[2])}
		}
		rt, err := shard.NewRouterSlots(slots)
		if err != nil {
			t.Fatal(err)
		}
		r := rt.Ranked()
		if r.N != testN {
			t.Fatalf("Ranked N=%d, want %d", r.N, testN)
		}
		if got, want := r.Bound(0), rt.TruncationBound(0); got != want {
			t.Fatalf("Bound = %v, want %v", got, want)
		}
		for _, queries := range [][]int{{7}, {13, 42, 42}} {
			want, err := rt.TopKTagged(ctx, queries, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			items, prov, err := r.TopK(ctx, queries, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			if prov.MissingShards != want.Missing || prov.ErrorBound != want.ErrorBound || (prov.MissingShards > 0) != down {
				t.Fatalf("down=%v %v: provenance %+v, router tagged %d missing, bound %v", down, queries, prov, want.Missing, want.ErrorBound)
			}
			if len(items) != len(want.Items) {
				t.Fatalf("down=%v %v: %v, want %v", down, queries, items, want.Items)
			}
			for i := range items {
				if items[i].Node != want.Items[i].Node || math.Float64bits(items[i].Score) != math.Float64bits(want.Items[i].Score) {
					t.Fatalf("down=%v %v: %v, want %v bit for bit", down, queries, items, want.Items)
				}
			}
		}
		got, err := r.Scores(ctx, []int{7, 99}, []int{0, 50, 100})
		if err != nil {
			t.Fatal(err)
		}
		want, err := rt.Scores(ctx, []int{7, 99}, []int{0, 50, 100})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 2; qi++ {
			for ti := 0; ti < 3; ti++ {
				if math.Float64bits(got.At(qi, ti)) != math.Float64bits(want.At(qi, ti)) {
					t.Fatalf("Scores(%d, %d) = %v, want %v", qi, ti, got.At(qi, ti), want.At(qi, ti))
				}
			}
		}
	}
}
