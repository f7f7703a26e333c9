package svd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

// asGiven decomposes a without looking at its support: the run Truncated
// made before it restricted the range finder, and the reference the
// restricted run is held to. Same range finder, same sketch, n-sized panels.
func asGiven(tb testing.TB, a *sparse.CSR, r int, opts Options) *Result {
	tb.Helper()
	rows, cols := a.Dims()
	p := &problem{a: a, rows: rows, cols: cols}
	res, err := p.decompose(r, opts.withDefaults(), &clock{last: time.Now()})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// embedded scatters a random nr x nc matrix with no empty row or column
// (every row and column gets one entry, then Bernoulli(density) more) into
// a rows x cols matrix at random ascending positions, so empty rows and
// columns are interleaved with the support. rank > 0 makes the block an
// exact rank-rank product instead.
func embedded(rng *rand.Rand, rows, cols, nr, nc int, density float64, rank int) (a *sparse.CSR, rowIdx, colIdx []int32) {
	pick := func(n, k int) []int32 {
		idx := rng.Perm(n)[:k]
		sort.Ints(idx) // ascending, as Support reports them
		out := make([]int32, k)
		for i, v := range idx {
			out[i] = int32(v)
		}
		return out
	}
	rowIdx, colIdx = pick(rows, nr), pick(cols, nc)
	block := dense.NewMat(nr, nc)
	if rank > 0 {
		l, r := dense.NewMat(nr, rank), dense.NewMat(rank, nc)
		for i := range l.Data {
			l.Data[i] = rng.NormFloat64()
		}
		for i := range r.Data {
			r.Data[i] = rng.NormFloat64()
		}
		block = dense.Mul(l, r)
	} else {
		for i := 0; i < nr; i++ {
			block.Set(i, rng.Intn(nc), rng.NormFloat64())
		}
		for j := 0; j < nc; j++ {
			block.Set(rng.Intn(nr), j, rng.NormFloat64())
		}
		for i := range block.Data {
			if rng.Float64() < density {
				block.Data[i] = rng.NormFloat64()
			}
		}
	}
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if v := block.At(i, j); v != 0 {
				if err := coo.Add(int(rowIdx[i]), int(colIdx[j]), v); err != nil {
					panic(err)
				}
			}
		}
	}
	return coo.ToCSR(), rowIdx, colIdx
}

// onSupport cuts the as-given run want down to the rows got holds — U to
// got.RowSupport, V to got.ColSupport. strict fails unless every row it
// drops is +0 bits: the full-size factors are the support's, padded with
// zeros.
func onSupport(tb testing.TB, want, got *Result, strict bool) *Result {
	tb.Helper()
	cut := func(what string, m *dense.Mat, ids []int32) *dense.Mat {
		if ids == nil {
			return m
		}
		out := dense.NewMat(len(ids), m.Cols)
		on := make(map[int]bool, len(ids))
		for i, id := range ids {
			copy(out.Row(i), m.Row(int(id)))
			on[int(id)] = true
		}
		for i := 0; i < m.Rows && strict; i++ {
			for j, v := range m.Row(i) {
				if !on[i] && math.Float64bits(v) != 0 {
					tb.Fatalf("as-given %s[%d,%d] = %v off the support, want exactly 0", what, i, j, v)
				}
			}
		}
		return out
	}
	return &Result{U: cut("U", want.U, got.RowSupport), S: want.S, V: cut("V", want.V, got.ColSupport)}
}

// supportIDs holds got to one factor row per support row and column, r
// wide, named by RowSupport and ColSupport — nil on a side of a that has
// no empty row (column) to leave out.
func supportIDs(tb testing.TB, got *Result, a *sparse.CSR, rowIdx, colIdx []int32, r int) {
	tb.Helper()
	if !got.U.IsShape(len(rowIdx), r) || !got.V.IsShape(len(colIdx), r) {
		tb.Fatalf("factors %dx%d / %dx%d, want %d and %d rows, %d wide", got.U.Rows, got.U.Cols, got.V.Rows, got.V.Cols, len(rowIdx), len(colIdx), r)
	}
	rows, cols := a.Dims()
	for _, s := range []struct {
		what      string
		got, want []int32
		n         int
	}{{"RowSupport", got.RowSupport, rowIdx, rows}, {"ColSupport", got.ColSupport, colIdx, cols}} {
		if len(s.want) == s.n {
			s.want = nil
		}
		if (s.got == nil) != (s.want == nil) || !slices.Equal(s.got, s.want) {
			tb.Fatalf("%s = %v, want %v", s.what, s.got, s.want)
		}
	}
}

// product returns UΣVᵀ, the one thing a decomposition's basis choices
// cannot change.
func product(r *Result) *dense.Mat {
	return dense.MulT(dense.Mul(r.U, dense.Diag(r.S)), r.V)
}

// sameBits reports whether two decompositions are equal bit for bit.
func sameBits(got, want *Result) bool {
	return reftest.BitEqual(got.U, want.U) && reftest.BitEqual(got.V, want.V) &&
		reftest.BitEqual(dense.Diag(got.S), dense.Diag(want.S))
}

// sameDecomposition holds got to want (cut to got's support) entry by
// entry: σ, U and V — so UΣVᵀ, which at serving scale is an n x n matrix
// no test forms. A CholeskyQR factor has a positive diagonal, which fixes Q
// whatever rows of zeros sit between the support's: the sign a Householder
// reflector took from its pivot entry (a zero row's 0 in one run, a
// support row's value in the other) is gone, and the two runs' vectors
// differ by rounding, not by sign.
func sameDecomposition(t *testing.T, got, want *Result, tol float64) {
	t.Helper()
	for i, s := range got.S {
		if d := math.Abs(s - want.S[i]); d > tol*math.Max(1, want.S[0]) {
			t.Fatalf("σ[%d] = %v, as given %v (diff %g)", i, s, want.S[i], d)
		}
	}
	if d := got.U.Sub(want.U).MaxAbs(); d > tol {
		t.Fatalf("U differs from the as-given run's support rows by %g", d)
	}
	if d := got.V.Sub(want.V).MaxAbs(); d > tol {
		t.Fatalf("V differs from the as-given run's support rows by %g", d)
	}
}

// TestTruncatedEmbeddingDifferential is the support rule's contract: a
// matrix with empty rows and columns interleaved decomposes, restricted to
// its support, to factors with one row per support row and column, named
// by RowSupport and ColSupport, that are what it decomposes to as given on
// those rows.
//
// "The same" means to rounding — σ, U and V entry by entry to 1e-12 —
// because both runs multiply the same sketch numbers against the same
// entries in the same order and differ only where a blocked reduction
// regroups; as given, every other row is exactly zero. The "randomized"
// prefix keeps the subtest IDs their results are tracked under.
func TestTruncatedEmbeddingDifferential(t *testing.T) {
	const r, oversample = 12, 8
	const k = r + oversample
	for si, sh := range []struct{ rows, cols, nr, nc int }{
		{160, 160, 60, 50},   // square, both sides thinned
		{90, 200, 90, 70},    // wide, no empty row: only the column map is live
		{220, 80, 64, 80},    // tall, no empty column
		{300, 310, k + 1, k}, // support exactly as wide as the sketch
	} {
		t.Run(fmt.Sprintf("randomized/%dx%d", sh.rows, sh.cols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(700 + si)))
			a, rowIdx, colIdx := embedded(rng, sh.rows, sh.cols, sh.nr, sh.nc, 0.15, 0)
			opts := Options{Oversample: oversample, Seed: int64(si)}
			got, err := Truncated(a, r, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.SupportRows != sh.nr || got.SupportCols != sh.nc {
				t.Fatalf("support %dx%d, want %dx%d", got.SupportRows, got.SupportCols, sh.nr, sh.nc)
			}
			supportIDs(t, got, a, rowIdx, colIdx, r)
			sameDecomposition(t, got, onSupport(t, asGiven(t, a, r, opts), got, true), 1e-12)
		})
	}
}

// TestTruncatedSupportEdges walks the shapes where restricting could go
// wrong: nothing to restrict to, a support too narrow for the sketch (the
// matrix must be decomposed as given, bit for bit), a rank request wider
// than the support, and a rank-deficient support, where Orthonormalize
// substitutes coordinate vectors for the dependent sketch columns — on the
// matrix as given those could be coordinates of empty rows; restricted,
// there are none to pick. The "randomized" prefix keeps the subtest IDs
// their results are tracked under.
func TestTruncatedSupportEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	opts := Options{Seed: 5}
	bitsAsGiven := func(t *testing.T, a *sparse.CSR, r int) *Result {
		t.Helper()
		got, err := Truncated(a, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := asGiven(t, a, r, opts)
		if rows, cols := a.Dims(); got.SupportRows != rows || got.SupportCols != cols {
			t.Fatalf("support %dx%d: a %dx%d matrix this narrow is decomposed as given", got.SupportRows, got.SupportCols, rows, cols)
		}
		if !sameBits(got, want) {
			t.Fatal("factors are not the as-given run's bits")
		}
		return got
	}
	t.Run("randomized/all-zero", func(t *testing.T) {
		res := bitsAsGiven(t, sparse.NewCOO(40, 30).ToCSR(), 3)
		if dense.Diag(res.S).MaxAbs() > 1e-10 {
			t.Fatalf("zero matrix: σ = %v", res.S)
		}
	})
	t.Run("randomized/one-row", func(t *testing.T) {
		coo := sparse.NewCOO(30, 30)
		norm := 0.0
		for j := 0; j < 30; j += 2 {
			v := rng.NormFloat64()
			norm += v * v
			if err := coo.Add(17, j, v); err != nil {
				t.Fatal(err)
			}
		}
		res := bitsAsGiven(t, coo.ToCSR(), 2)
		if math.Abs(res.S[0]-math.Sqrt(norm)) > 1e-12 || res.S[1] > 1e-12 {
			t.Fatalf("σ = %v, want [%v 0]", res.S, math.Sqrt(norm))
		}
		if math.Abs(math.Abs(res.U.At(17, 0))-1) > 1e-12 {
			t.Fatalf("U[17,0] = %v, want ±1", res.U.At(17, 0))
		}
	})
	t.Run("randomized/narrower-than-sketch", func(t *testing.T) {
		a, _, _ := embedded(rng, 60, 60, 11, 40, 0.3, 0) // r + oversample = 12 > 11 rows
		bitsAsGiven(t, a, 4)
	})
	t.Run("randomized/rank-wider-than-support", func(t *testing.T) {
		a, _, _ := embedded(rng, 50, 50, 5, 6, 0.5, 0)
		res := bitsAsGiven(t, a, 8)
		for _, s := range res.S[5:] {
			if s > 1e-8 {
				t.Fatalf("σ = %v: a 5-row support has 5 non-zero singular values", res.S)
			}
		}
	})
	t.Run("randomized/rank-deficient-support", func(t *testing.T) {
		a, rowIdx, colIdx := embedded(rng, 120, 110, 40, 36, 0, 3)
		const r = 6
		res, err := Truncated(a, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.SupportRows != 40 || res.SupportCols != 36 {
			t.Fatalf("support %dx%d, want 40x36", res.SupportRows, res.SupportCols)
		}
		supportIDs(t, res, a, rowIdx, colIdx, r)
		for i, s := range res.S {
			if (i < 3) != (s > 1e-8) {
				t.Fatalf("σ = %v, want exactly three non-zero", res.S)
			}
		}
		want := onSupport(t, asGiven(t, a, r, opts), res, false)
		if d := product(res).Sub(product(want)).MaxAbs(); d > 1e-12*math.Max(1, want.S[0]) {
			t.Fatalf("UΣVᵀ differs from the as-given run by %g", d)
		}
		// The range finder's repair keeps U orthonormal past the rank.
		if g := dense.TMul(res.U, res.U); !g.Equal(dense.Eye(r), 1e-8) {
			t.Fatalf("U not orthonormal (dev %g)", g.Sub(dense.Eye(r)).MaxAbs())
		}
	})
}

// The two shapes Test_TruncatedSupport and Benchmark_TruncatedSupport share:
// the transition matrices of the serving benchmark's graph (the WT stand-in,
// n = 131072, 71 % of rows and of columns empty) and of FB (n = 4039, none
// empty).
var (
	shapesOnce sync.Once
	shapeWT    *sparse.CSR
	shapeFB    *sparse.CSR
	shapesErr  error
)

func supportShapes(tb testing.TB) (wt, fb *sparse.CSR) {
	tb.Helper()
	shapesOnce.Do(func() {
		for _, s := range []struct {
			key string
			dst **sparse.CSR
		}{{"WT", &shapeWT}, {"FB", &shapeFB}} {
			d, err := graph.DatasetByKey(s.key)
			if err != nil {
				shapesErr = err
				return
			}
			g, err := d.Generate()
			if err != nil {
				shapesErr = err
				return
			}
			if *s.dst, shapesErr = g.Transition(); shapesErr != nil {
				return
			}
		}
	})
	if shapesErr != nil {
		tb.Fatal(shapesErr)
	}
	return shapeWT, shapeFB
}

// Test_TruncatedSupport is the differential at serving scale, where the
// panels clear every parallel threshold: on WT the restricted run works on
// the 38306 x 38369 support and its factors are the as-given run's support
// rows, entry by entry; on FB there is nothing to restrict and the run is
// the as-given run, bit for bit.
func Test_TruncatedSupport(t *testing.T) {
	if testing.Short() {
		t.Skip("decomposes the n = 131072 fixture twice")
	}
	wt, fb := supportShapes(t)
	opts := Options{}
	const r = 16

	got, err := Truncated(wt, r, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, rowIdx, colIdx := wt.Support()
	if got.SupportRows != len(rowIdx) || got.SupportCols != len(colIdx) || got.SupportRows != 38306 || got.SupportCols != 38369 {
		t.Fatalf("WT support %dx%d, scan counts %dx%d, want 38306x38369", got.SupportRows, got.SupportCols, len(rowIdx), len(colIdx))
	}
	supportIDs(t, got, wt, rowIdx, colIdx, r)
	sameDecomposition(t, got, onSupport(t, asGiven(t, wt, r, opts), got, true), 1e-12)

	gotFB, err := Truncated(fb, r, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantFB := asGiven(t, fb, r, opts)
	if n, _ := fb.Dims(); gotFB.SupportRows != n || gotFB.SupportCols != n {
		t.Fatalf("FB support %dx%d, want the whole %dx%d", gotFB.SupportRows, gotFB.SupportCols, n, n)
	}
	if !sameBits(gotFB, wantFB) {
		t.Fatal("FB has no empty row or column, yet the factors are not the as-given run's bits")
	}
}

// Benchmark_TruncatedSupport prices Truncated against the as-given run on
// Test_TruncatedSupport's two shapes: the gain where most of the matrix is
// empty, and what the scan costs where none of it is.
//
//	go test -run='^$' -bench=_TruncatedSupport -benchtime=5x ./internal/svd/
func Benchmark_TruncatedSupport(b *testing.B) {
	wt, fb := supportShapes(b)
	for _, s := range []struct {
		name string
		a    *sparse.CSR
	}{{"WT", wt}, {"FB", fb}} {
		b.Run(s.name+"/support", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Truncated(s.a, 16, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"/as-given", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				asGiven(b, s.a, 16, Options{})
			}
		})
	}
}

// FuzzTruncatedSupport drives random sparsity patterns — which rows and
// columns are empty, how dense the rest is — through Truncated: the
// restricted run must decompose exactly the support, return one factor row
// per support row and column, descending finite σ, and agree with the
// as-given run on the product UΣVᵀ.
func FuzzTruncatedSupport(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(40), uint8(20), uint8(20), uint8(40))
	f.Add(int64(2), uint8(90), uint8(30), uint8(30), uint8(30), uint8(10))
	f.Add(int64(3), uint8(25), uint8(120), uint8(14), uint8(13), uint8(200))
	f.Add(int64(4), uint8(60), uint8(60), uint8(3), uint8(50), uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, nr, nc, density uint8) {
		R, C := int(rows)%120+4, int(cols)%120+4
		NR, NC := int(nr)%R+1, int(nc)%C+1
		rng := rand.New(rand.NewSource(seed))
		a, rowIdx, colIdx := embedded(rng, R, C, NR, NC, float64(density)/255, 0)
		opts := Options{Oversample: 4, Seed: seed}
		const r = 3
		got, err := Truncated(a, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantRows, wantCols := R, C
		if min(NR, NC) >= min(r+opts.Oversample, R, C) { // as wide as the sketch: restricted to
			wantRows, wantCols = NR, NC
		}
		if got.SupportRows != wantRows || got.SupportCols != wantCols {
			t.Fatalf("%dx%d support of a %dx%d matrix: decomposed %dx%d, want %dx%d", NR, NC, R, C, got.SupportRows, got.SupportCols, wantRows, wantCols)
		}
		if wantRows == NR {
			supportIDs(t, got, a, rowIdx, colIdx, r)
		}
		for i, s := range got.S {
			if !(s >= 0) || math.IsInf(s, 0) || (i > 0 && s > got.S[i-1]+1e-9) {
				t.Fatalf("σ = %v: want finite, non-negative, descending", got.S)
			}
		}
		want := onSupport(t, asGiven(t, a, r, opts), got, false)
		if d := product(got).Sub(product(want)).MaxAbs(); d > 1e-9*math.Max(1, want.S[0]) {
			t.Fatalf("UΣVᵀ differs from the as-given run by %g (σ %v vs %v)", d, got.S, want.S)
		}
	})
}

// TestRandomizedAllocatesFourPanels bounds what a randomized decomposition
// of the WT shape allocates: the factors it returns — r wide and on the
// support, no n x r matrix (16.8 MB, 2.3 panels) anywhere — and beside them
// four sketch-sized panels' worth (38369 x 24): the range finder's two, Aᵀ,
// the support's index arrays and the Gram reductions' partials (≈ 3.3 in
// all), with 1 MB for everything small. Until U and V came on the support
// and r wide, two of the four were theirs. A step that goes back to a fresh
// matrix of its own adds a panel and fails.
func TestRandomizedAllocatesFourPanels(t *testing.T) {
	if testing.Short() {
		t.Skip("decomposes the n = 131072 fixture")
	}
	wt, _ := supportShapes(t)
	opts := Options{}.withDefaults()
	const r = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Truncated(wt, r, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.U.IsShape(res.SupportRows, r) || !res.V.IsShape(res.SupportCols, r) {
		t.Fatalf("factors %dx%d / %dx%d, want the support's %d and %d rows", res.U.Rows, res.U.Cols, res.V.Rows, res.V.Cols, res.SupportRows, res.SupportCols)
	}
	panel := int64(max(res.SupportRows, res.SupportCols)) * int64(r+opts.Oversample) * 8
	got, bound := int64(after.TotalAlloc-before.TotalAlloc), res.Bytes()+4*panel+1<<20
	t.Logf("allocated %d bytes: the factors' %d + %.2f panels of %d", got, res.Bytes(), float64(got-res.Bytes())/float64(panel), panel)
	if got > bound {
		t.Fatalf("Truncated allocated %d bytes, want at most the factors' %d + 4 panels of %d + 1 MiB = %d", got, res.Bytes(), panel, bound)
	}
}

// TestTruncatedSupportIsTruncated holds the entry point for a caller that
// built the support block itself to Truncated, bit for bit and support for
// support: on restricted shapes, on one with nothing to restrict, and on a
// support too narrow for the sketch, which must be embedded back and
// decomposed as given.
func TestTruncatedSupportIsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, sh := range []struct{ rows, cols, nr, nc int }{
		{160, 160, 60, 50}, {90, 200, 90, 70}, {80, 80, 80, 80}, {60, 60, 11, 40},
	} {
		a, _, _ := embedded(rng, sh.rows, sh.cols, sh.nr, sh.nc, 0.15, 0)
		opts := Options{Seed: 3}
		want, err := Truncated(a, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, rowIdx, colIdx := a.Support()
		got, err := TruncatedSupport(s, sh.rows, sh.cols, rowIdx, colIdx, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) || got.SupportRows != want.SupportRows || got.SupportCols != want.SupportCols ||
			!slices.Equal(got.RowSupport, want.RowSupport) || !slices.Equal(got.ColSupport, want.ColSupport) {
			t.Fatalf("%dx%d (support %dx%d): TruncatedSupport is not Truncated", sh.rows, sh.cols, sh.nr, sh.nc)
		}
	}
	if _, err := TruncatedSupport(sparse.NewCOO(3, 3).ToCSR(), 3, 3, nil, nil, 4, Options{}); !errors.Is(err, ErrRank) {
		t.Fatalf("rank 4 of a 3x3 matrix: err = %v, want ErrRank", err)
	}
}
