package core_test

import (
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/baseline"
	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/svd"
)

// sequentialWorstFB is the largest entrywise error against Exact that the
// sequential sketch — one stream over all n rows, drawn before the keyed
// sketch replaced it — served on FB at r = 16, c = 0.6 over seeds 1–5, on
// the 30 queries TestKeyedSketchHoldsFBAccuracy draws. Seed 2's; the
// others read 0.05729–0.05732 (EXPERIMENTS.md, "The keyed sketch").
const sequentialWorstFB = 0.057335390860782098

// TestKeyedSketchHoldsFBAccuracy holds the keyed sketch to the accuracy
// the sequential one had: on FB, for each of seeds 1–5, the largest error
// of a served column against Exact (Eps 1e-14) over 30 seeded queries
// among the nodes with an in-link is no worse than the sequential sketch's
// worst seed.
func TestKeyedSketchHoldsFBAccuracy(t *testing.T) {
	d, err := graph.DatasetByKey("FB")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var linked []int
	for i, k := range g.InDegrees() {
		if k > 0 {
			linked = append(linked, i)
		}
	}
	rng := rand.New(rand.NewSource(21))
	queries := make([]int, 30)
	for i := range queries {
		queries[i] = linked[rng.Intn(len(linked))]
	}
	exact := baseline.NewExact(baseline.Config{Damping: 0.6, Eps: 1e-14})
	if err := exact.Precompute(g); err != nil {
		t.Fatal(err)
	}
	want, err := exact.Query(queries)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		ix, err := core.Precompute(g, core.Options{Rank: 16, Damping: 0.6, SVD: svd.Options{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range got.Data {
			worst = math.Max(worst, math.Abs(got.Data[i]-want.Data[i]))
		}
		t.Logf("seed %d: max error %.6g (sequential sketch's worst seed %.6g)", seed, worst, sequentialWorstFB)
		if worst > sequentialWorstFB {
			t.Errorf("seed %d: max error %.17g against Exact, worse than the sequential sketch's worst seed %.17g", seed, worst, sequentialWorstFB)
		}
	}
}
