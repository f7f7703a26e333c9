package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"csrplus/internal/graph"
	"csrplus/internal/par"
)

// factorCRC is the CRC-32 of F‖σ as little-endian float64 bit patterns:
// one number that moves if any bit of Phase I's output does. F is taken
// n x r, the rows the index leaves out as the +0 rows they stand for.
func factorCRC(ix *Index) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, s := range [][]float64{ix.denseF64().Data, ix.sigma} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum32()
}

// phase1Pins are CRC(F‖σ) of Precompute at Rank 8 on seeded R-MAT
// graphs, on linux/amd64. Anything that touches Phase I is held to those
// bits. The small graph keeps every kernel on its serial path; on the large
// one the sparse passes, the CholeskyQR GEMMs and the chunked Gram
// reductions all run parallel.
//
// They have been recorded four times, the first three as CRC(Z‖U‖σ) of
// the two-factor index. First at commit f58b8c2 — the last whose QR was the
// row-major Householder loop now frozen as reftest.QRThin — as 0x5cf3f9a7
// and 0x7137b402, which the column-major QR then reproduced. Then, as
// 0xdeeef938 and 0xb062c8a5, when the SVD drivers moved onto the support of
// Q: 48 % and 56 % of these graphs' nodes have no in-link (and as many no
// out-link), the blocked reductions see only the support's rows, and the
// factors moved within rounding. Then, as 0x9fa36919 and 0x70e82f67, when
// CholeskyQR2 replaced the Householder QR and H₀ came to be summed over the
// rows both factors hold: the factors moved within rounding again (served
// scores by at most 3e-14 on the FB, P2P, YT and WT stand-ins at r = 5 and
// 16; EXPERIMENTS.md). Then when the index came to store the one Gram
// factor F = U·E·Λ^{1/2} in place of Z and U: a new quantity, whose served
// scores c·F·F_Qᵀ move from c·Z·U_Qᵀ by rounding alone (EXPERIMENTS.md).
// Then, as 0x5880dbd3 and 0x2c886fa1 (were 0x1ce4d869 and 0xc6a7b8a3),
// when the Gaussian sketch came to be drawn per node, each row from the
// stream keyed by (seed, node), in place of one sequential stream over all
// n rows: other Gaussian numbers, so other factors of the same accuracy
// (EXPERIMENTS.md, "The keyed sketch").
var phase1Pins = []struct {
	scale int
	edges int64
	crc   uint32
}{
	{scale: 12, edges: 16384, crc: 0x5880dbd3},
	{scale: 15, edges: 131072, crc: 0x2c886fa1},
}

// identityPin is CRC(F‖σ) of Precompute at Rank 16 on the FB stand-in,
// whose transition matrix has no empty row or column. It was recorded at
// commit c0ad012, before svd.Truncated looked at the support, as 0x7f00c341
// (then CRC(Z‖U‖σ)), and held through the support restriction — with
// nothing to restrict to, the arithmetic was that commit's bit for bit —
// until CholeskyQR2 moved every factor within rounding (0x9524d09a), and
// then the one Gram factor replaced Z and U (0x7818f189), and then the
// keyed sketch drew other Gaussian numbers for the same 4039 rows.
const identityPin uint32 = 0xc62254c9

// TestPrecomputePinnedBits holds Phase I end to end to the pinned bits, at
// several worker counts: the factors are a function of (graph, options)
// alone. The constants are amd64's (where Go
// never fuses multiply-add); elsewhere the worker-count half still runs.
func TestPrecomputePinnedBits(t *testing.T) {
	for _, pin := range phase1Pins {
		g, err := graph.RMAT(pin.scale, pin.edges, graph.DefaultRMAT, 20240914)
		if err != nil {
			t.Fatal(err)
		}
		var first uint32
		for i, w := range []int{1, 2, 7} {
			prev := par.SetMaxWorkers(w)
			ix, err := Precompute(g, Options{Rank: 8})
			par.SetMaxWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			got := factorCRC(ix)
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("n=%d workers=%d: CRC %#08x, workers=1 gave %#08x", g.N(), w, got, first)
			}
		}
		if runtime.GOARCH != "amd64" {
			t.Logf("n=%d: CRC %#08x not compared: constant recorded on amd64, %s may fuse multiply-adds", g.N(), first, runtime.GOARCH)
		} else if first != pin.crc {
			t.Errorf("n=%d: CRC(F‖σ) = %#08x, want %#08x", g.N(), first, pin.crc)
		}
	}
}

// TestPrecomputeIdentitySupportPinned holds Phase I on a graph with no
// empty row or column of Q to identityPin's bits.
func TestPrecomputeIdentitySupportPinned(t *testing.T) {
	d, err := graph.DatasetByKey("FB")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(g, Options{Rank: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rows, cols := ix.Support(); rows != g.N() || cols != g.N() {
		t.Fatalf("FB support %dx%d, want the whole %dx%d", rows, cols, g.N(), g.N())
	}
	if got := factorCRC(ix); runtime.GOARCH != "amd64" {
		t.Logf("CRC %#08x not compared: constant recorded on amd64", got)
	} else if got != identityPin {
		t.Errorf("CRC(F‖σ) = %#08x, want %#08x", got, identityPin)
	}
}

// TestNodesWithoutInLinksAreExactlyIsolated checks what the support buys
// promises downstream. A node j nobody links to has an empty column of Q,
// so S[·,j] = e_j and nothing else (THEORY.md §5): its row of F is never
// computed and never stored — the index stores exactly the column support,
// whose rows spread back over zeros are phase1Pins' second CRC — its F row
// reads as zeros, and a query for it must return the unit vector exactly.
// It also holds the stage clock to its promise: the seven stages sum to
// PrecomputeTime, beside the six CholeskyQR passes of a well-conditioned
// sketch.
func TestNodesWithoutInLinksAreExactlyIsolated(t *testing.T) {
	g, err := graph.RMAT(15, 131072, graph.DefaultRMAT, 20240914)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(g, Options{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	_, rows, cols := q.Support()
	if nr, nc := ix.Support(); nr != len(rows) || nc != len(cols) || nc == g.N() {
		t.Fatalf("index support %dx%d, Q has %d non-empty rows and %d non-empty columns of %d", nr, nc, len(rows), len(cols), g.N())
	}
	if !slices.Equal(ix.ids, cols) || ix.Stored() != len(cols) || ix.f.Rows != len(cols) {
		t.Fatalf("index stores %d rows (F %d), Q's column support is %d: want exactly those", len(ix.ids), ix.f.Rows, len(cols))
	}
	if err := ix.CheckStored(); err != nil {
		t.Fatal(err)
	}
	if got := factorCRC(ix); runtime.GOARCH == "amd64" && got != phase1Pins[1].crc {
		t.Fatalf("CRC of the stored rows over zeros = %#08x, want %#08x: the bits of the n x r factor", got, phase1Pins[1].crc)
	}
	if want := int64(len(cols))*int64(ix.rank)*8 + int64(len(cols))*4 + int64(ix.rank)*8; ix.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d: one stored-rows x r factor, the ids and sigma", ix.Bytes(), want)
	}
	linked := make([]bool, g.N())
	for _, j := range cols {
		linked[j] = true
	}
	checked := 0
	for j := 0; j < g.N(); j++ {
		if linked[j] {
			continue
		}
		if _, stored := ix.row(j); stored {
			t.Fatalf("node %d has no in-link but its rows are stored", j)
		}
		for c, v := range ix.URow(j) {
			if math.Float64bits(v) != 0 {
				t.Fatalf("node %d has no in-link but F[%d,%d] reads %v", j, j, c, v)
			}
		}
		if checked++; checked%97 != 1 { // a full column for a sample of them
			continue
		}
		col, err := ix.QueryOne(j)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range col {
			if (i == j && v != 1) || (i != j && v != 0) {
				t.Fatalf("S[%d,%d] = %v for a node without in-links, want e_q", i, j, v)
			}
		}
	}
	if checked == 0 {
		t.Fatal("fixture has no node without in-links")
	}

	st, total := ix.Stages(), ix.PrecomputeTime()
	sum := st.Sparse + st.Ortho + st.Small + st.Subspace + st.Gram + st.Draw + st.Rest
	if st.Draw <= 0 || st.Rest <= 0 || sum > total || float64(sum) < 0.98*float64(total) {
		t.Fatalf("stages %v sum to %v, PrecomputeTime is %v: want within 2 %%", st, sum, total)
	}
	if st.OrthoPasses != 6 {
		t.Fatalf("%d CholeskyQR passes, want 2 for each of the 3 orthonormalisations", st.OrthoPasses)
	}
	if st.GramClamped != 0 || ix.ClampBound() != 0 {
		t.Fatalf("%d eigenvalues of ΣPΣ clamped (charge %v) on a graph whose retained σ are positive", st.GramClamped, ix.ClampBound())
	}
}

// precomputeWTBudget is what Precompute may allocate on the WT stand-in at
// r = 16, c = 0.6, recorded at 26.98 MB with a megabyte of room: the
// support-restricted transition, the range finder's two panels — which
// every tall matrix of phase I lives in, F included — Aᵀ, and what is
// small. It was 51.6 MB while U, V, the solve's gathers and F each took
// fresh memory and the transition was a whole copy of the adjacency.
const precomputeWTBudget = 28_000_000

// TestPrecomputeAllocBudget holds phase I's allocation on the serving
// benchmark's fixture to precomputeWTBudget. Bytes allocated are a
// function of the code path and the shapes alone, so box noise cannot move
// them: a stage that goes back to a fresh tall matrix fails here. 64-bit
// only, where the budget was recorded (int and pointer widths set the
// index arrays' sizes).
func TestPrecomputeAllocBudget(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("budget recorded with 64-bit ints")
	}
	if testing.Short() {
		t.Skip("precomputes the n = 131072 fixture")
	}
	d, err := graph.DatasetByKey("WT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Precompute(g, Options{Rank: 16, Damping: 0.6})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Precompute on WT allocated %.2f MB (budget %.2f MB)", float64(got)/1e6, float64(precomputeWTBudget)/1e6)
	if got > precomputeWTBudget {
		t.Fatalf("Precompute on WT allocated %d bytes, budget %d", got, precomputeWTBudget)
	}
}
