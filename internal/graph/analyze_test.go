package graph

import (
	"testing"

	"csrplus/internal/sparse"
)

func buildGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for _, e := range edges {
		if err := coo.Add(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return New(coo)
}

func TestReverse(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("Reverse wrong")
	}
	if r.M() != g.M() {
		t.Fatal("edge count changed")
	}
}

func TestWeakComponents(t *testing.T) {
	// Two components: {0,1,2} (via directed edges either way) and {3,4};
	// node 5 isolated.
	g := buildGraph(t, 6, [][2]int{{0, 1}, {2, 1}, {3, 4}})
	labels, count := g.WeakComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("component of 0,1,2 split: %v", labels)
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatalf("labels = %v", labels)
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatalf("isolated node merged: %v", labels)
	}
}

func TestWeakComponentsEmptyAndFull(t *testing.T) {
	g := buildGraph(t, 4, nil)
	if _, count := g.WeakComponents(); count != 4 {
		t.Fatalf("edgeless count = %d", count)
	}
	ring := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if _, count := ring.WeakComponents(); count != 1 {
		t.Fatalf("ring count = %d", count)
	}
}

func TestStrongComponents(t *testing.T) {
	// Cycle {0,1,2} is one SCC; 3 hangs off it; {4,5} is a 2-cycle.
	g := buildGraph(t, 6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3},
		{4, 5}, {5, 4},
	})
	labels, count := g.StrongComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (labels %v)", count, labels)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("cycle split: %v", labels)
	}
	if labels[3] == labels[0] {
		t.Fatalf("tail merged into cycle: %v", labels)
	}
	if labels[4] != labels[5] {
		t.Fatalf("2-cycle split: %v", labels)
	}
	// Reverse topological order: 3 (sink) must be labelled before the
	// cycle that points at it.
	if labels[3] > labels[0] {
		t.Fatalf("condensation order wrong: %v", labels)
	}
}

func TestStrongComponentsDAG(t *testing.T) {
	// A DAG has n singleton SCCs.
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if _, count := g.StrongComponents(); count != 4 {
		t.Fatalf("DAG count = %d", count)
	}
}

func TestStrongComponentsDeepChain(t *testing.T) {
	// A 50k-node chain would overflow a recursive Tarjan's stack; the
	// iterative version must handle it.
	n := 50000
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n-1; i++ {
		if err := coo.Add(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := New(coo)
	if _, count := g.StrongComponents(); count != n {
		t.Fatalf("chain count = %d, want %d", count, n)
	}
}

func TestDegreeHistogram(t *testing.T) {
	// In-degrees: node1 <- 3 nodes, node2 <- 1 node, others 0.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {2, 1}, {3, 1}, {0, 2}})
	h := g.InDegreeHistogram()
	if h.Max != 3 {
		t.Fatalf("Max = %d", h.Max)
	}
	if h.Zeros != 3 {
		t.Fatalf("Zeros = %d", h.Zeros)
	}
	// deg 1 -> bin 0, deg 3 -> bin 1.
	if h.Bins[0] != 1 || h.Bins[1] != 1 {
		t.Fatalf("Bins = %v", h.Bins)
	}
	if h.Mean != 4.0/5 {
		t.Fatalf("Mean = %v", h.Mean)
	}
}

func TestPowerLawishDistinguishesGenerators(t *testing.T) {
	rm, err := RMAT(12, 30000, DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(4096, 30000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.InDegreeHistogram().PowerLawish(10) {
		t.Fatal("RMAT not heavy-tailed")
	}
	if er.InDegreeHistogram().PowerLawish(10) {
		t.Fatal("ER looks heavy-tailed")
	}
}

func TestTopHubs(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 1}, {2, 1}, {3, 1}, {0, 2}, {3, 2}, {4, 0}})
	hubs := g.TopHubs(2)
	if len(hubs) != 2 || hubs[0] != 1 || hubs[1] != 2 {
		t.Fatalf("hubs = %v", hubs)
	}
	if got := g.TopHubs(100); len(got) != 5 {
		t.Fatalf("clamp failed: %v", got)
	}
}
