package dense_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
)

// The orthonormaliser is held to its contract, not to a frozen loop's bits:
// Q has orthonormal columns (QᵀQ = I to 1e-13·k), Q spans a's columns
// (a_j − Q·Qᵀa_j within 1e-6 of a_j), and where a is conditioned well enough
// to have one column space to speak of (κ ≤ 1e8) it is the one the
// Householder oracle reftest.Orthonormalize finds — compared through the
// k x k cross-Gram C = Q_refᵀQ, which is orthogonal (CᵀC = I) exactly when
// the two spans coincide; no m x m product is ever formed. The bits are the
// same at every worker count (TestQRThinWorkerCountInvariant).
// Test_Orthonormalize, Benchmark_Orthonormalize and Fuzz_Orthonormalize
// share the cases.

// orthoShapes are the shapes every input kind is tried at: the corners, a
// Table-3 rank-sweep cell (n = 20000, r = 50 + 8) and the WT support panel
// Phase I factors (38306 rows, r = 16 + 8).
var orthoShapes = [][2]int{{1, 1}, {5, 3}, {40, 7}, {100, 25}, {20000, 58}, {38306, 24}}

// orthoKinds are the input kinds: "kappa=1eN" is Gaussian columns mixed by a
// random rotation after a geometric grading of condition number 10^N.
var orthoKinds = func() []string {
	var kinds []string
	for e := 0; e <= 15; e++ {
		kinds = append(kinds, fmt.Sprintf("kappa=1e%d", e))
	}
	return append(kinds, "rank deficient", "duplicated columns", "zero column",
		"all zero", "graded columns", "huge", "NaN", "+Inf", "-Inf")
}()

// orthoCase is one (shape, kind) input with what its check needs to know.
type orthoCase struct {
	name  string
	a     *dense.Mat
	basis *dense.Mat // Gaussian columns spanning a's column space, nil when a has no well-conditioned one
	kappa float64    // condition number of a's grading, 0 when not graded
	// raw marks a payload whose conditioning nobody chose: its span is
	// checked only where basis says it is conditioned (see FuzzQRThin).
	raw bool
}

// The large shapes' Gaussian columns and their oracle bases are built once
// and shared by every kind (the oracle's At/Set loop takes a second at
// 20000 x 58); small ones are cheap and fuzzed, so they are never kept.
var (
	bigGaussians = map[[3]int64]*dense.Mat{}
	bigRefs      = map[*dense.Mat]*dense.Mat{}
)

func gaussian(m, k int, seed int64) *dense.Mat {
	key := [3]int64{int64(m), int64(k), seed}
	if g := bigGaussians[key]; g != nil {
		return g
	}
	g := randMat(rand.New(rand.NewSource(seed)), m, k)
	if m*k >= 1<<16 {
		bigGaussians[key] = g
	}
	return g
}

func oracle(basis *dense.Mat) *dense.Mat {
	if ref := bigRefs[basis]; ref != nil {
		return ref
	}
	ref := reftest.Orthonormalize(basis, 0)
	if len(basis.Data) >= 1<<16 {
		bigRefs[basis] = ref
	}
	return ref
}

// orthoInput builds kind at m x k from seed; ok is false where the kind
// cannot exist (a grading or a second column in one column).
func orthoInput(kind string, m, k int, seed int64) (c orthoCase, ok bool) {
	rng := rand.New(rand.NewSource(seed + 1))
	g := gaussian(m, k, seed)
	c = orthoCase{name: fmt.Sprintf("%dx%d/%s", m, k, kind), a: g.Clone(), basis: g}
	var e int
	if _, err := fmt.Sscanf(kind, "kappa=1e%d", &e); err == nil {
		if k == 1 && e > 0 {
			return c, false
		}
		// a = G·diag(σ)·Vᵀ, σ from 1 down to 10^-e, V a random rotation:
		// no column scaling undoes the grading.
		v := reftest.Orthonormalize(randMat(rng, k, k), 0)
		sigma := make([]float64, k)
		for j := range sigma {
			sigma[j] = 1
			if k > 1 {
				sigma[j] = math.Pow(10, -float64(e)*float64(j)/float64(k-1))
			}
		}
		c.a, c.kappa = dense.MulT(dense.Mul(g, dense.Diag(sigma)), v), math.Pow(10, float64(e))
		return c, true
	}
	mid, last := k/2, k-1
	setCol := func(j int, f func(i int) float64) {
		for i := 0; i < m; i++ {
			c.a.Set(i, j, f(i))
		}
	}
	c.basis = nil
	switch kind {
	case "rank deficient": // rank ⌈k/2⌉
		if k < 2 {
			return c, false
		}
		c.a = dense.MulT(randMat(rng, m, (k+1)/2), randMat(rng, k, (k+1)/2))
	case "duplicated columns": // column 1 is column 0, ahead of the independent rest
		if k < 2 {
			return c, false
		}
		setCol(1, func(i int) float64 { return g.At(i, 0) })
		if last > 1 {
			setCol(last, func(i int) float64 { return g.At(i, mid) })
		}
	case "zero column":
		setCol(mid, func(int) float64 { return 0 })
	case "all zero":
		c.a = dense.NewMat(m, k)
	case "graded columns": // column norms from 1e-150 to 1e150: no scale is shared
		for j := 0; j < k; j++ {
			f := math.Pow(10, 300*float64(j)/float64(max(k-1, 1))-150)
			setCol(j, func(i int) float64 { return f * g.At(i, j) })
		}
		c.basis = g
	case "huge": // squared column norms overflow
		c.a = g.Clone().Scale(1e200)
	case "NaN":
		c.a.Set(m-1, last, math.NaN())
	case "+Inf":
		c.a.Set(m/2, mid, math.Inf(1))
	case "-Inf":
		c.a.Set(0, 0, math.Inf(-1))
	}
	return c, true
}

// holdOrthonormalize runs Orthonormalize on c.a, holds the result to the
// contract and returns the pass count (0 for an input that must fail).
func holdOrthonormalize(tb testing.TB, c orthoCase) (q *dense.Mat, passes int) {
	tb.Helper()
	m, k := c.a.Rows, c.a.Cols
	panel := make([]float64, m*k+3)
	for i := range panel {
		panel[i] = math.NaN()
	}
	q, passes, err := dense.OrthonormalizePasses(c.a, panel, 0)
	finite := true // and no column's squared norm overflows
	for j := 0; j < k; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += c.a.At(i, j) * c.a.At(i, j)
		}
		finite = finite && s-s == 0
	}
	switch {
	case !finite:
		if !errors.Is(err, dense.ErrNotFinite) {
			tb.Fatalf("%s: err = %v, want ErrNotFinite", c.name, err)
		}
		return nil, 0
	case err != nil:
		tb.Fatalf("%s: %v", c.name, err)
	}
	if !q.IsShape(m, k) || (k > 0 && &q.Data[0] != &panel[0]) {
		tb.Fatalf("%s: result %dx%d outside the panel it was given", c.name, q.Rows, q.Cols)
	}
	if d := dense.TMul(q, q).Sub(dense.Eye(k)).MaxAbs(); !(d <= 1e-13*float64(k)) {
		tb.Fatalf("%s: QᵀQ deviates from I by %g (%d passes)", c.name, d, passes)
	}
	// The span, column by column: a_j − Q·(Qᵀa_j) relative to a_j, for
	// every column whose squared norm does not underflow. A Gram matrix
	// keeps an ill-conditioned column's weakest direction only to about
	// u·κ, so the bar is the angle the oracle comparison allows (CᵀC = I to
	// 1e-12 is angles of 1e-6); repairs leave 2k·tol beside it.
	res := c.a.Sub(dense.Mul(q, dense.TMul(q, c.a)))
	for j := 0; j < k && (!c.raw || c.basis != nil); j++ {
		norm := dense.Norm2(c.a.Col(j, nil))
		if d := dense.Norm2(res.Col(j, nil)); norm > 0x1p-500 && !(d <= 1e-6*norm) {
			tb.Fatalf("%s: Q misses column %d: ‖a_j − QQᵀa_j‖/‖a_j‖ = %g (%d passes)", c.name, j, d/norm, passes)
		}
	}
	if c.basis != nil && c.kappa <= 1e8 {
		cross := dense.TMul(oracle(c.basis), q)
		if d := dense.TMul(cross, cross).Sub(dense.Eye(k)).MaxAbs(); !(d <= 1e-12) {
			tb.Fatalf("%s: spans a different space than reftest.Orthonormalize: ‖CᵀC − I‖ = %g", c.name, d)
		}
	}
	return q, passes
}

// Test_Orthonormalize runs every kind at every shape and logs the pass
// counts — the condition number at which the shifted pass starts firing.
func Test_Orthonormalize(t *testing.T) {
	for _, sh := range orthoShapes {
		var fired []string
		for _, kind := range orthoKinds {
			c, ok := orthoInput(kind, sh[0], sh[1], int64(sh[0]*31+sh[1]))
			if !ok {
				continue
			}
			q, passes := holdOrthonormalize(t, c)
			if q != nil && c.kappa != 0 {
				fired = append(fired, fmt.Sprintf("%g:%d", c.kappa, passes))
				if c.kappa <= 1e3 && passes != 2 {
					t.Errorf("%s: %d passes, want CholeskyQR2's 2 at this conditioning", c.name, passes)
				}
			}
		}
		t.Logf("%dx%d κ:passes %v", sh[0], sh[1], fired)
	}
}

// TestQRThinWideRejected: a thin QR's Q needs rows >= cols, and
// Orthonormalize says so with ErrShape instead of a panic or a short Q.
func TestQRThinWideRejected(t *testing.T) {
	if _, err := dense.Orthonormalize(dense.NewMat(2, 5), 0); !errors.Is(err, dense.ErrShape) {
		t.Fatalf("2x5: err = %v, want ErrShape", err)
	}
	if _, err := dense.OrthonormalizeInto(dense.NewMat(2, 5), make([]float64, 10), 0); !errors.Is(err, dense.ErrShape) {
		t.Fatalf("2x5 into a panel: err = %v, want ErrShape", err)
	}
}

// TestQRThinWorkerCountInvariant: Gram's reduction grid is fixed by the
// shape and each row of X·R⁻¹ is one goroutine's, so Orthonormalize is the
// same bits at 1, 2 and 7 workers — at the two shapes past the parallel
// threshold, on a well-conditioned input (CholeskyQR2) and one that takes
// the shifted pass and the row substitution (κ = 1e12).
func TestQRThinWorkerCountInvariant(t *testing.T) {
	for _, sh := range orthoShapes {
		if sh[0]*sh[1] < 1<<18 {
			continue
		}
		for _, kind := range []string{"kappa=1e0", "kappa=1e12"} {
			c, _ := orthoInput(kind, sh[0], sh[1], int64(sh[0]*31+sh[1]))
			var want *dense.Mat
			for _, w := range []int{1, 2, 7} {
				prev := par.SetMaxWorkers(w)
				got, err := dense.Orthonormalize(c.a, 0)
				par.SetMaxWorkers(prev)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", c.name, w, err)
				}
				if want == nil {
					want = got
					continue
				}
				bitEq(t, fmt.Sprintf("%s workers=%d", c.name, w), got, want)
			}
		}
	}
}

// Benchmark_Orthonormalize prices every kind at the two Phase I shapes:
// the well-conditioned inputs Phase I hands it, and what a shifted pass or
// a repair costs beside them.
//
//	go test -run='^$' -bench=_Orthonormalize -benchtime=5x ./internal/dense/
func Benchmark_Orthonormalize(b *testing.B) {
	for _, sh := range orthoShapes[len(orthoShapes)-2:] {
		for _, kind := range []string{"kappa=1e0", "kappa=1e12", "rank deficient"} {
			c, _ := orthoInput(kind, sh[0], sh[1], 1)
			panel := make([]float64, len(c.a.Data))
			b.Run(c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := dense.OrthonormalizeInto(c.a, panel, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Fuzz_Orthonormalize explores the kinds at fuzzer-chosen small shapes,
// seeds and worker counts; its seed corpus is every kind once.
func Fuzz_Orthonormalize(f *testing.F) {
	for i := range orthoKinds {
		sh := orthoShapes[1+i%2] // 5 x 3 and 40 x 7, the fuzzable shapes that hold every kind
		f.Add(uint8(sh[0]-sh[1]), uint8(sh[1]-1), uint8(i), uint8(i), int64(i))
	}
	f.Fuzz(func(t *testing.T, extra, cols, workers, kind uint8, seed int64) {
		k := 1 + int(cols)%fuzzDims
		m := k + int(extra)%(2*fuzzDims)
		prev := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prev)
		if c, ok := orthoInput(orthoKinds[int(kind)%len(orthoKinds)], m, k, seed); ok {
			holdOrthonormalize(t, c)
		}
	})
}

// FuzzQRThin runs Orthonormalize on raw-bit payloads — garbage exponents,
// NaNs, infinities, signed zeros and subnormals at fuzzer-chosen positions
// — and holds it to its error contract and orthonormality everywhere, and,
// where reftest.QRThin's R says the input has one column space (κ <= 1e6
// with its columns at unit norm), to spanning it and to the Householder
// oracle's span. Cyclic payloads are often numerically singular with
// geometric growth in R⁻¹: a column there is in the others' span only
// through cancellations no Gram-based method (nor its drop rule) resolves.
func FuzzQRThin(f *testing.F) {
	for _, raw := range fuzzSeeds {
		f.Add(uint8(0), uint8(5), uint8(1), raw)  // square
		f.Add(uint8(13), uint8(1), uint8(2), raw) // one column
		f.Add(uint8(20), uint8(9), uint8(0), raw) // thin
	}
	f.Fuzz(func(t *testing.T, extra, cols, workers uint8, raw []byte) {
		k := 1 + int(cols)%fuzzDims
		m := k + int(extra)%(2*fuzzDims)
		prev := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prev)
		c := orthoCase{name: fmt.Sprintf("%dx%d raw", m, k), a: matFromBytes(m, k, raw, 0), raw: true}
		// A finite payload is scaled (exactly) to a largest magnitude near 1,
		// where no squared norm overflows — "huge" is the kind that does. The
		// oracle gets its columns at unit norm, which moves no span and is
		// where its condition number (and SVDJacobi's tolerance) means
		// anything.
		if top := c.a.MaxAbs(); top > 0 && top-top == 0 && !c.a.HasNaN() {
			_, e := math.Frexp(top)
			c.a.Scale(math.Ldexp(1, -e))
			unit, resolved := c.a.Clone(), true
			for j := 0; j < k; j++ {
				col := unit.Col(j, nil)
				n := dense.Norm2(col)
				dense.ScaleVec(1/n, col)
				unit.SetCol(j, col)
				resolved = resolved && n > 0x1p-500 // a squared norm that underflows reads as a zero column
			}
			_, r := reftest.QRThin(unit)
			// SVDJacobi resolves singular values only to √u·σ₁, so κ is read
			// no further than 1e6.
			if sv, err := reftest.SVDJacobi(r); resolved && err == nil && sv.S[k-1] >= 1e-6*sv.S[0] {
				c.basis, c.kappa = unit, sv.S[0]/sv.S[k-1]
			}
		}
		holdOrthonormalize(t, c)
	})
}

// TestQRThinReconstruction holds the oracle the span comparisons trust:
// reftest.QRThin is a thin QR — Q orthonormal, R upper triangular, QR = a —
// at the shape classes.
func TestQRThinReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{1, 1}, {5, 3}, {12, 12}, {40, 7}, {100, 25}} {
		holdThinQR(t, fmt.Sprint(dims), randMat(rng, dims[0], dims[1]))
	}
}

// TestQRThinZeroColumn: the oracle leaves a zero column's reflector out and
// is still a thin QR.
func TestQRThinZeroColumn(t *testing.T) {
	a := dense.NewMat(4, 2)
	a.Set(0, 1, 3) // first column all zeros
	holdThinQR(t, "zero column", a)
}

func holdThinQR(t *testing.T, what string, a *dense.Mat) {
	t.Helper()
	q, r := reftest.QRThin(a)
	if d := dense.Mul(q, r).Sub(a).MaxAbs(); d > 1e-12 {
		t.Fatalf("%s: QR deviates from a by %g", what, d)
	}
	if d := dense.TMul(q, q).Sub(dense.Eye(q.Cols)).MaxAbs(); d > 1e-12 {
		t.Fatalf("%s: QᵀQ deviates from I by %g", what, d)
	}
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("%s: R not upper triangular at (%d, %d)", what, i, j)
			}
		}
	}
}
