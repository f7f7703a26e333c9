package shard_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/shard"
	"csrplus/internal/sparse"
	"csrplus/internal/topk"
)

// downSlot is a slot whose partial top-k fails the way an unreachable
// worker's does; it still answers the bound terms its router primed.
type downSlot struct{ shard.Slot }

func (downSlot) PartialTopK(context.Context, []int, *dense.Mat, int, int) ([]topk.Item, error) {
	return nil, shard.ErrSlotDown
}

// boundGraphs are the property suite's graphs: Erdős–Rényi and R-MAT ones
// up to 400 nodes, the latter with nodes nobody links to, and a complete
// bipartite graph of rank 2 indexed at rank 12 — a factor whose trailing
// columns are the null space of Q.
func boundGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, seed := range []int64{1, 2} {
		g, err := graph.ErdosRenyi(150*int(seed)+100, int64(600*seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("ER-%d", g.N())] = g
	}
	g, err := graph.RMAT(8, 1500, graph.DefaultRMAT, 4)
	if err != nil {
		t.Fatal(err)
	}
	gs["RMAT-256"] = g
	coo := sparse.NewCOO(30, 30)
	for i := 0; i < 12; i++ {
		for j := 12; j < 30; j++ {
			if err := coo.Add(i, j, 1); err != nil {
				t.Fatal(err)
			}
			if err := coo.Add(j, i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	gs["bipartite-30"] = graph.New(coo)
	return gs
}

// TestBoundsHoldProperty checks every bound the one factor re-derives
// against the f64 answer: for each graph and tier {f64, f32, int8}, every
// entry a monolith serves is within its TruncationBound; and behind a K = 3 router whose middle slot cannot
// answer, every listed item's summed score is within |Q|·TruncationBound of
// the f64 sum, the router's bound is the monolith's bit for bit, and no
// node of the missing slot could have summed past the ErrorBound the
// answer carries. Zero violations, always.
func TestBoundsHoldProperty(t *testing.T) {
	ctx := context.Background()
	for name, g := range boundGraphs(t) {
		n := g.N()
		exact, err := core.Precompute(g, core.Options{Rank: 12})
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		ref, err := exact.Query(all, nil) // ref.At(i, q): the full-rank f64 S[i, q]
		if err != nil {
			t.Fatal(err)
		}
		plan, err := shard.SplitEven(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		lo1, hi1 := plan.Range(1)
		// Sources on the slots that answer: the first and last nodes, one
		// beside each cut, and a repeat.
		lo2, _ := plan.Range(2)
		queries := []int{0, lo1 - 1, lo2, n - 1, 0}
		for _, tier := range []core.Tier{core.TierF64, core.TierF32, core.TierI8} {
			ix, err := exact.Quantize(tier)
			if err != nil {
				t.Fatal(err)
			}
			shards, err := shard.Split(ix, 3)
			if err != nil {
				t.Fatal(err)
			}
			slots := []shard.Slot{shard.NewLocal(shards[0]), shard.NewLocal(shards[1]), shard.NewLocal(shards[2])}
			slots[1] = downSlot{slots[1]}
			rt, err := shard.NewRouterSlots(slots)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s tier=%v", name, tier)
			bound := ix.TruncationBound(0)
			if rb := rt.TruncationBound(0); math.Float64bits(rb) != math.Float64bits(bound) {
				t.Fatalf("%s: router bound %v, monolith %v", label, rb, bound)
			}
			got, err := ix.QueryRankInto(ctx, queries, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for j, q := range queries {
				for i := 0; i < n; i++ {
					worst = math.Max(worst, math.Abs(got.At(i, j)-ref.At(i, q)))
				}
			}
			if worst > bound {
				t.Errorf("%s: monolith within %g of the f64 answer, bound %g", label, worst, bound)
			}

			sum := func(i int) float64 {
				s := 0.0
				for _, q := range queries {
					s += ref.At(i, q)
				}
				return s
			}
			res, err := rt.TopKTagged(ctx, queries, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Missing != 1 || !(res.ErrorBound > 0) {
				t.Fatalf("%s: %d slots missing, error bound %v", label, res.Missing, res.ErrorBound)
			}
			listed := float64(len(queries)) * bound
			for _, it := range res.Items {
				if it.Node >= lo1 && it.Node < hi1 {
					t.Fatalf("%s: item %d from the slot that did not answer", label, it.Node)
				}
				if d := math.Abs(it.Score - sum(it.Node)); d > listed {
					t.Errorf("%s: item %d scores %v, the f64 sum is %v: off by %g, bound %g", label, it.Node, it.Score, sum(it.Node), d, listed)
				}
			}
			for i := lo1; i < hi1; i++ {
				if s := sum(i); math.Abs(s) > res.ErrorBound {
					t.Errorf("%s: omitted node %d sums to %v, past the error bound %v", label, i, s, res.ErrorBound)
				}
			}
		}
	}
}
