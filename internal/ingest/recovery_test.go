package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

// TestBootRecoveryOrderingBitwise is the recovery-ordering contract:
// snapshot factors + WAL-tail replay must reconstruct the exact live
// graph, so a rebuild precomputed over the recovered cut is
// bitwise-identical to a clean build over the union of base + every
// logged edge — shard by shard, at K ∈ {1, 4}.
func TestBootRecoveryOrderingBitwise(t *testing.T) {
	const rank = 8
	g0, err := graph.ErdosRenyi(80, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix0, err := core.Precompute(g0, core.Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc := newReady(t, g0, ix0, Config{Dir: dir})
	edges := freshEdges(t, g0, 6)
	if _, _, err := svc.Append(edges[:4]); err != nil {
		t.Fatal(err)
	}
	// Mid-stream rebuild: factors over the cut, stamped with its seq —
	// the state a published snapshot would carry.
	gCut, cutSeq, _, err := svc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if cutSeq != 4 {
		t.Fatalf("cut seq %d, want 4", cutSeq)
	}
	ixCut, err := core.Precompute(gCut, core.Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}
	ixCut.SetWalSeq(cutSeq)
	// The tail lands after the snapshot.
	if _, _, err := svc.Append(edges[4:]); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Boot recovery: static base graph + snapshot factors + full WAL
	// replay (the records the snapshot covers rebuild structure only).
	svc2 := newReady(t, g0, ixCut, Config{Dir: dir})
	gRecovered, lastSeq, _, err := svc2.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 6 {
		t.Fatalf("recovered seq %d, want 6", lastSeq)
	}
	ixRecovered, err := core.Precompute(gRecovered, core.Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}

	// Clean build over the union of base edges and every logged edge.
	adj := g0.Adj()
	coo := sparse.NewCOO(g0.N(), g0.N())
	for u := 0; u < g0.N(); u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			if err := coo.Add(u, int(adj.ColIdx[p]), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range edges {
		if err := coo.Add(e.Src, e.Dst, 1); err != nil {
			t.Fatal(err)
		}
	}
	ixClean, err := core.Precompute(graph.New(coo), core.Options{Rank: rank})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			n := g0.N()
			for s := 0; s < k; s++ {
				lo, hi := s*n/k, (s+1)*n/k
				var a, b bytes.Buffer
				shA, err := ixRecovered.Shard(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				shB, err := ixClean.Shard(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := shA.WriteTo(&a); err != nil {
					t.Fatal(err)
				}
				if _, err := shB.WriteTo(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("shard %d [%d, %d) of recovered build differs bitwise from clean build", s, lo, hi)
				}
			}
		})
	}
}
