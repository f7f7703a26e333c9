package reload_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/shard/shardtest"
)

const rollN, rollRank = 97, 4

func rollIndex(t testing.TB, seed int64) *core.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, 5*rollN)
	for i := 0; i < rollN; i++ {
		edges = append(edges, [2]int{i, (i + 1) % rollN})
		for e := 0; e < 4; e++ {
			edges = append(edges, [2]int{rng.Intn(rollN), rng.Intn(rollN)})
		}
	}
	g, err := csrplus.NewGraph(rollN, edges)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: rollRank})
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := eng.CoreIndex()
	if !ok {
		t.Fatal("CSR+ engine without a core index")
	}
	return ix
}

func sliceLoader(ix *core.Index) reload.ShardLoadFunc {
	return func(_ context.Context, _, lo, hi int) (*core.IndexShard, error) {
		return ix.Shard(lo, hi)
	}
}

func TestRollShards(t *testing.T) {
	ixA, ixB := rollIndex(t, 1), rollIndex(t, 2)
	rt, err := shard.NewRouterFromIndex(ixA, 3)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := reload.RollShards(context.Background(), rt, sliceLoader(ixB))
	if err != nil || swapped != 3 {
		t.Fatalf("swapped=%d err=%v, want 3, nil", swapped, err)
	}
	for s, gen := range rt.Generations() {
		if gen != 2 {
			t.Fatalf("shard %d at generation %d after roll, want 2", s, gen)
		}
	}
	// Post-roll answers are index B's, bitwise.
	want, err := ixB.QueryRankInto(context.Background(), []int{5, 60}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Columns(context.Background(), rt, []int{5, 60}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("rolled router does not answer from the new index")
	}
}

// A load failure mid-roll must leave the already-swapped prefix on the
// new generation, everything else on the old — and the router serving
// exactly throughout.
func TestRollShardsPartialFailure(t *testing.T) {
	ixA, ixB := rollIndex(t, 1), rollIndex(t, 2)
	rt, err := shard.NewRouterFromIndex(ixA, 4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	swapped, err := reload.RollShards(context.Background(), rt, func(ctx context.Context, s, lo, hi int) (*core.IndexShard, error) {
		if s == 2 {
			return nil, boom
		}
		return ixB.Shard(lo, hi)
	})
	if !errors.Is(err, boom) || swapped != 2 {
		t.Fatalf("swapped=%d err=%v, want 2, wrapped boom", swapped, err)
	}
	want := []uint64{2, 2, 1, 1}
	for s, gen := range rt.Generations() {
		if gen != want[s] {
			t.Fatalf("generations = %v, want %v", rt.Generations(), want)
		}
	}
	if _, err := rt.TopK(context.Background(), []int{5, 60}, 10); err != nil {
		t.Fatalf("mid-roll router stopped serving: %v", err)
	}
	// A later successful roll converges every slot (generation counters
	// are per slot, so the prefix that already swapped runs one ahead).
	if swapped, err := reload.RollShards(context.Background(), rt, sliceLoader(ixB)); err != nil || swapped != 4 {
		t.Fatalf("convergence roll: swapped=%d err=%v", swapped, err)
	}
	want = []uint64{3, 3, 2, 2}
	for s, gen := range rt.Generations() {
		if gen != want[s] {
			t.Fatalf("generations after convergence = %v, want %v", rt.Generations(), want)
		}
	}
	wantMat, err := ixB.QueryRankInto(context.Background(), []int{5, 60}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardtest.Columns(context.Background(), rt, []int{5, 60}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantMat, 0) {
		t.Fatal("converged router does not answer from the new index")
	}
}

// A candidate that fails validation must never take traffic: the roll
// stops at that slot with the old generation still installed.
func TestRollShardsValidationGate(t *testing.T) {
	ixA := rollIndex(t, 1)
	rt, err := shard.NewRouterFromIndex(ixA, 3)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := reload.RollShards(context.Background(), rt, func(_ context.Context, s, lo, hi int) (*core.IndexShard, error) {
		sh, err := ixA.Shard(lo, hi)
		if err != nil {
			return nil, err
		}
		if s == 1 {
			// Poison the candidate's factors. The shard views the index's
			// backing array, so persist a copy first: round-trip through
			// the wire format to get an independent allocation.
			sh = copyShard(ixA, lo, hi)
			sh.URow(lo)[0] = math.NaN()
		}
		return sh, nil
	})
	if !errors.Is(err, reload.ErrValidation) || swapped != 1 {
		t.Fatalf("swapped=%d err=%v, want 1, ErrValidation", swapped, err)
	}
	gens := rt.Generations()
	if gens[0] != 2 || gens[1] != 1 || gens[2] != 1 {
		t.Fatalf("generations = %v, want [2 1 1]", gens)
	}
}

// copyShard returns a shard over [lo, hi) backed by its own allocation
// (a wire-format round trip), so tests can corrupt it without touching
// the source index's shared backing array.
func copyShard(ix *core.Index, lo, hi int) *core.IndexShard {
	sh, err := ix.Shard(lo, hi)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		panic(err)
	}
	back, err := core.ReadShard(&buf)
	if err != nil {
		panic(err)
	}
	return back
}

func TestRollShardsHonoursContext(t *testing.T) {
	ixA := rollIndex(t, 1)
	rt, err := shard.NewRouterFromIndex(ixA, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	swapped, err := reload.RollShards(ctx, rt, sliceLoader(ixA))
	if !errors.Is(err, context.Canceled) || swapped != 0 {
		t.Fatalf("swapped=%d err=%v, want 0, context.Canceled", swapped, err)
	}
}

// TestShardedReloadUnderFire extends the PR 3 reload-under-fire contract
// to the sharded backend: a serve.Server fronting a Router takes
// uninterrupted traffic while rolling reloads continuously swap shard
// factors underneath it. Zero requests may fail or return degenerate
// scores (each request snapshots a consistent piecewise index, even
// mid-roll), and once the rolls stop the served answers must be
// bitwise those of the final index.
func TestShardedReloadUnderFire(t *testing.T) {
	ixA, ixB := rollIndex(t, 1), rollIndex(t, 2)
	rt, err := shard.NewRouterFromIndex(ixA, 3)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewRanked(shardtest.Ranked(rt), serve.Config{MaxPending: 4096, Workers: 4})
	defer sv.Close()

	queries := []int{5, 60}
	var failed atomic.Int64
	stop := make(chan struct{})
	var rollers sync.WaitGroup
	rollers.Add(1)
	go func() {
		defer rollers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := ixA
			if i%2 == 0 {
				src = ixB
			}
			if _, err := reload.RollShards(context.Background(), rt, sliceLoader(src)); err != nil {
				t.Errorf("roll %d: %v", i, err)
				return
			}
		}
	}()

	var hammers sync.WaitGroup
	for w := 0; w < 4; w++ {
		hammers.Add(1)
		go func() {
			defer hammers.Done()
			for i := 0; i < 300; i++ {
				res, err := sv.Search(context.Background(), queries, 10)
				if err != nil {
					failed.Add(1)
					t.Errorf("request failed under rolling reload: %v", err)
					return
				}
				if len(res.Matches) == 0 {
					failed.Add(1)
					t.Error("empty match set under rolling reload")
					return
				}
				for _, m := range res.Matches {
					if math.IsNaN(m.Score) || math.IsInf(m.Score, 0) {
						failed.Add(1)
						t.Errorf("non-finite score %v under rolling reload", m.Score)
						return
					}
				}
			}
		}()
	}
	hammers.Wait()
	close(stop)
	rollers.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed during rolling reloads, want 0", n)
	}
	// After the dust settles, one final roll pins the router to index B
	// and the server must answer exactly from it.
	if _, err := reload.RollShards(context.Background(), rt, sliceLoader(ixB)); err != nil {
		t.Fatal(err)
	}
	res, err := sv.Search(context.Background(), queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.TopK(context.Background(), queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want) {
		t.Fatalf("%d matches, want %d", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i].Node != want[i].Node || res.Matches[i].Score != want[i].Score {
			t.Fatalf("match %d: served (%d, %v), router says (%d, %v)",
				i, res.Matches[i].Node, res.Matches[i].Score, want[i].Node, want[i].Score)
		}
	}
}

// TestValidateShardCompacted runs the shard gate over an index that leaves
// its all-zero rows out (the v2 fixture of internal/core, compacted): the
// whole index and every cut of it pass — a cut that stores nothing
// included, which has only implicit rows to probe — and a non-finite entry
// in a stored row's factors is still refused, through the probes, which are
// stored rows where there are any.
func TestValidateShardCompacted(t *testing.T) {
	dense, err := core.LoadIndex("../core/testdata/index.v2-sparse.csrx")
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	ix := dense.Compact()
	if ix.Stored() != 36 || ix.StoredNode(3) != 4 {
		t.Fatalf("fixture stores %d rows, the fourth node %d: want 36 and 4", ix.Stored(), ix.StoredNode(3))
	}
	for _, cut := range [][2]int{{0, 48}, {3, 24}, {3, 4}, {47, 48}, {8, 11}} {
		sh, err := ix.Shard(cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := reload.ValidateShard(sh); err != nil {
			t.Fatalf("shard [%d, %d) storing %d rows: %v", cut[0], cut[1], sh.Stored(), err)
		}
	}
	// [3, 24) starts on a row it does not store; its first probe is node 4.
	bad := copyShard(ix, 3, 24)
	bad.URow(3)[0] = math.NaN() // an implicit row reads as a fresh row of zeros: nothing to poison
	if err := reload.ValidateShard(bad); err != nil {
		t.Fatalf("writing to an implicit row's zeros changed the shard: %v", err)
	}
	bad.URow(4)[0] = math.Inf(1)
	if err := reload.ValidateShard(bad); !errors.Is(err, reload.ErrValidation) {
		t.Fatalf("shard with a non-finite stored U row: err = %v, want ErrValidation", err)
	}
}

// TestValidateShardStreams pins that the gate's every-row pass allocates
// nothing of the shard's length: it used to fill a Rows x 3 block. What it
// may allocate is the scan's pooled scratch (131 KB at three probes), when
// the pool has none to hand out.
func TestValidateShardStreams(t *testing.T) {
	g, err := csrplus.GenerateDataset("P2P", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := eng.CoreIndex()
	if err := reload.ValidateShard(&ix.IndexShard); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := reload.ValidateShard(&ix.IndexShard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, block := after.TotalAlloc-before.TotalAlloc, uint64(ix.N())*3*8; got > block/2 {
		t.Fatalf("validating %d rows (%d stored) allocated %d bytes; a rows x 3 block is %d", ix.N(), ix.Stored(), got, block)
	}
}
