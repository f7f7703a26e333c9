package sparse

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"csrplus/internal/dense"
)

// randCSR builds a random sparse matrix (density ~d) and its dense mirror.
func randCSR(rng *rand.Rand, rows, cols int, d float64) (*CSR, *dense.Mat) {
	coo := NewCOO(rows, cols)
	ref := dense.NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < d {
				v := rng.NormFloat64()
				if err := coo.Add(i, j, v); err != nil {
					panic(err)
				}
				ref.Set(i, j, ref.At(i, j)+v)
			}
		}
	}
	return coo.ToCSR(), ref
}

func TestCOOBasics(t *testing.T) {
	c := NewCOO(3, 4)
	if r, cl := c.Dims(); r != 3 || cl != 4 {
		t.Fatalf("Dims = %d,%d", r, cl)
	}
	if err := c.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	if err := c.Add(3, 0, 1); !errors.Is(err, ErrIndex) {
		t.Fatalf("row out of range: err = %v", err)
	}
	if err := c.Add(0, -1, 1); !errors.Is(err, ErrIndex) {
		t.Fatalf("negative col: err = %v", err)
	}
	c.Grow(100)
	if err := c.Add(2, 3, 5); err != nil {
		t.Fatal(err)
	}
}

func TestCOONegativeDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCOO(-1, 1) did not panic")
		}
	}()
	NewCOO(-1, 1)
}

func TestToCSRSumsDuplicates(t *testing.T) {
	c := NewCOO(2, 2)
	for _, e := range []Triple{{0, 1, 1}, {0, 1, 2}, {1, 0, 5}, {0, 0, 1}} {
		if err := c.Add(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	m := c.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 after dedup", m.NNZ())
	}
	if got := m.At(0, 1); got != 3 {
		t.Fatalf("At(0,1) = %v, want 3 (summed)", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
}

func TestCSRSortedRows(t *testing.T) {
	c := NewCOO(1, 5)
	for _, j := range []int{4, 0, 2, 1, 3} {
		if err := c.Add(0, j, float64(j)); err != nil {
			t.Fatal(err)
		}
	}
	m := c.ToCSR()
	for p := 1; p < len(m.ColIdx); p++ {
		if m.ColIdx[p] <= m.ColIdx[p-1] {
			t.Fatalf("row not sorted: %v", m.ColIdx)
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewCOO(2, 2).ToCSR()
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestTransposeAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m, ref := randCSR(rng, 13, 7, 0.3)
	if !m.Transpose().ToDense().Equal(ref.T(), 1e-14) {
		t.Fatal("Transpose mismatch")
	}
	// Double transpose is identity.
	if !m.Transpose().Transpose().ToDense().Equal(ref, 1e-14) {
		t.Fatal("double Transpose mismatch")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, ref := randCSR(rng, 11, 9, 0.25)
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.MulVec(x, nil)
	want := dense.MulVec(ref, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Reuse path.
	got2 := m.MulVec(x, got)
	if &got2[0] != &got[0] {
		t.Fatal("MulVec did not reuse buffer")
	}
}

func TestMulVecTAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, ref := randCSR(rng, 11, 9, 0.25)
	x := make([]float64, 11)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.MulVecT(x, nil)
	want := dense.MulVec(ref.T(), x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Buffer reuse must zero the destination first.
	again := m.MulVecT(x, got)
	for i := range want {
		if math.Abs(again[i]-want[i]) > 1e-12 {
			t.Fatal("MulVecT reuse did not reset buffer")
		}
	}
}

func TestMulDenseBothSides(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, ref := randCSR(rng, 8, 6, 0.4)
	b := dense.NewMat(6, 5)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	if !m.MulDense(b).Equal(dense.Mul(ref, b), 1e-12) {
		t.Fatal("MulDense mismatch")
	}
	bt := dense.NewMat(8, 5)
	for i := range bt.Data {
		bt.Data[i] = rng.NormFloat64()
	}
	if !m.MulDenseT(bt).Equal(dense.Mul(ref.T(), bt), 1e-12) {
		t.Fatal("MulDenseT mismatch")
	}
	left := dense.NewMat(4, 8)
	for i := range left.Data {
		left.Data[i] = rng.NormFloat64()
	}
	if !DenseMulCSR(left, m).Equal(dense.Mul(left, ref), 1e-12) {
		t.Fatal("DenseMulCSR mismatch")
	}
}

func TestScaleColumnsAndColSums(t *testing.T) {
	c := NewCOO(2, 3)
	for _, e := range []Triple{{0, 0, 2}, {1, 0, 2}, {0, 2, 3}} {
		if err := c.Add(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	m := c.ToCSR()
	sums := m.ColSums()
	if sums[0] != 4 || sums[1] != 0 || sums[2] != 3 {
		t.Fatalf("ColSums = %v", sums)
	}
	m.ScaleColumns([]float64{0.25, 1, 1.0 / 3})
	sums = m.ColSums()
	for j, s := range []float64{1, 0, 1} {
		if math.Abs(sums[j]-s) > 1e-15 {
			t.Fatalf("after scale, ColSums[%d] = %v, want %v", j, sums[j], s)
		}
	}
}

func TestRowNNZAndBytes(t *testing.T) {
	c := NewCOO(3, 3)
	for _, e := range []Triple{{0, 0, 1}, {0, 1, 1}, {2, 2, 1}} {
		if err := c.Add(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	m := c.ToCSR()
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
	wantBytes := int64(4)*8 + int64(3)*4 + int64(3)*8
	if m.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d, want %d", m.Bytes(), wantBytes)
	}
}

// Property: SpMV agrees with the dense mirror for arbitrary random sparse
// matrices — the kernel every algorithm in the repo leans on.
func TestMulVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m, ref := randCSR(rng, rows, cols, 0.3)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x, nil)
		want := dense.MulVec(ref, x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := "# comment\n0 1\n1 2\n\n2 0\n0 1\n"
	coo, err := ReadEdgeList(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	m := coo.ToCSR()
	if m.At(0, 1) != 2 { // duplicate edge summed
		t.Fatalf("At(0,1) = %v, want 2", m.At(0, 1))
	}
	if m.At(2, 0) != 1 || m.At(1, 2) != 1 {
		t.Fatal("edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"one field", "0\n"},
		{"bad src", "x 1\n"},
		{"bad dst", "1 y\n"},
		{"out of range", "0 99\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in), 3); err == nil {
				t.Fatalf("input %q parsed without error", tc.in)
			} else if tc.name != "out of range" && !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, _ := randCSR(rng, 10, 10, 0.2)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, m); err != nil {
		t.Fatal(err)
	}
	coo, err := ReadEdgeList(strings.NewReader(sb.String()), 10)
	if err != nil {
		t.Fatal(err)
	}
	back := coo.ToCSR()
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip NNZ %d -> %d", m.NNZ(), back.NNZ())
	}
	rows, _ := m.Dims()
	for i := 0; i < rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if back.At(i, int(m.ColIdx[p])) != 1 {
				t.Fatalf("edge (%d,%d) lost", i, m.ColIdx[p])
			}
		}
	}
}

// TestReadEdgeListGarbageNeverPanics feeds random byte soup to the loader:
// it must always return (possibly an error), never panic.
func TestReadEdgeListGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("0123456789 -#\nabcxyz\t")
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", buf, r)
				}
			}()
			_, _ = ReadEdgeList(strings.NewReader(string(buf)), 50)
		}()
	}
}

func TestReadWeightedEdgeList(t *testing.T) {
	in := "# weighted\n0 1 2.5\n1 2 0.75\n0 1 0.5\n"
	coo, err := ReadWeightedEdgeList(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	m := coo.ToCSR()
	if m.At(0, 1) != 3.0 { // duplicates sum
		t.Fatalf("At(0,1) = %v, want 3", m.At(0, 1))
	}
	if m.At(1, 2) != 0.75 || m.NNZ() != 2 {
		t.Fatalf("At(1,2) = %v over %d entries, want 0.75 over 2", m.At(1, 2), m.NNZ())
	}
}

func TestReadWeightedEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0 1\n", "x 1 2\n", "0 y 2\n", "0 1 zz\n", "0 99 1\n"} {
		if _, err := ReadWeightedEdgeList(strings.NewReader(in), 3); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

// TestMulDenseParallelPath pins GOMAXPROCS above 1 so the goroutine fan-
// out in MulDense runs, and checks bit-identical agreement with the
// serial reference.
func TestMulDenseParallelPath(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(71))
	m, ref := randCSR(rng, 600, 500, 0.3)
	b := dense.NewMat(500, 30) // nnz ~90k x 30 cols ≈ 2.7M flops → parallel path
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := m.MulDense(b)
	want := dense.Mul(ref, b)
	if !got.Equal(want, 1e-10) {
		t.Fatal("parallel MulDense mismatch")
	}
	// Determinism across repeated parallel runs.
	if !m.MulDense(b).Equal(got, 0) {
		t.Fatal("parallel MulDense not deterministic")
	}
}

// TestSupport checks the restriction to non-empty rows and columns: what
// is kept and under which index, what is shared with the receiver, and that
// a matrix with nothing empty comes back as it is.
func TestSupport(t *testing.T) {
	build := func(rows, cols int, entries [][3]float64) *CSR {
		coo := NewCOO(rows, cols)
		for _, e := range entries {
			if err := coo.Add(int(e[0]), int(e[1]), e[2]); err != nil {
				t.Fatal(err)
			}
		}
		return coo.ToCSR()
	}
	for _, tc := range []struct {
		name       string
		m          *CSR
		rows, cols []int32 // nil: that side keeps everything
	}{
		{"nothing empty", build(2, 2, [][3]float64{{0, 1, 1}, {1, 0, 2}}), nil, nil},
		{"empty rows only", build(4, 2, [][3]float64{{1, 0, 1}, {1, 1, 2}, {3, 1, 3}}), []int32{1, 3}, nil},
		{"empty columns only", build(2, 5, [][3]float64{{0, 4, 1}, {1, 1, 2}, {1, 4, 3}}), nil, []int32{1, 4}},
		{"both, interleaved", build(5, 6, [][3]float64{{0, 2, 1}, {2, 5, 2}, {2, 0, 3}, {4, 2, 4}}), []int32{0, 2, 4}, []int32{0, 2, 5}},
		{"all zero", build(3, 4, nil), []int32{}, []int32{}},
		{"stored zero is an entry", build(3, 3, [][3]float64{{1, 1, 0}}), []int32{1}, []int32{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, rows, cols := tc.m.Support()
			if (rows == nil) != (tc.rows == nil) || (cols == nil) != (tc.cols == nil) {
				t.Fatalf("index maps rows=%v cols=%v, want %v / %v", rows, cols, tc.rows, tc.cols)
			}
			if tc.rows == nil && tc.cols == nil && s != tc.m {
				t.Fatal("a matrix with nothing empty must be returned as it is")
			}
			wantRows, wantCols := tc.m.Dims()
			if tc.rows != nil {
				wantRows = len(tc.rows)
			}
			if tc.cols != nil {
				wantCols = len(tc.cols)
			}
			if r, c := s.Dims(); r != wantRows || c != wantCols || s.NNZ() != tc.m.NNZ() {
				t.Fatalf("support is %dx%d with %d entries, want %dx%d with %d", r, c, s.NNZ(), wantRows, wantCols, tc.m.NNZ())
			}
			checkValid(t, s)
			orig := func(idx []int32, i int) int {
				if idx == nil {
					return i
				}
				return int(idx[i])
			}
			for i := range rows {
				if rows[i] != tc.rows[i] {
					t.Fatalf("rows = %v, want %v", rows, tc.rows)
				}
			}
			for j := range cols {
				if cols[j] != tc.cols[j] {
					t.Fatalf("cols = %v, want %v", cols, tc.cols)
				}
			}
			for i := 0; i < wantRows; i++ {
				for j := 0; j < wantCols; j++ {
					if got, want := s.At(i, j), tc.m.At(orig(rows, i), orig(cols, j)); got != want {
						t.Fatalf("support[%d,%d] = %v, original [%d,%d] = %v", i, j, got, orig(rows, i), orig(cols, j), want)
					}
				}
			}
			if len(s.Val) > 0 && &s.Val[0] != &tc.m.Val[0] {
				t.Fatal("values were copied, not shared")
			}
			rows0, cols0 := tc.m.Dims()
			back := s.Embed(rows0, cols0, rows, cols)
			if r, c := back.Dims(); r != rows0 || c != cols0 || !slices.Equal(back.RowPtr, tc.m.RowPtr) ||
				!slices.Equal(back.ColIdx, tc.m.ColIdx) || !slices.Equal(back.Val, tc.m.Val) {
				t.Fatalf("Embed of the support is %dx%d %v %v %v, want the original %v %v %v", r, c,
					back.RowPtr, back.ColIdx, back.Val, tc.m.RowPtr, tc.m.ColIdx, tc.m.Val)
			}
			checkValid(t, back)
			scale := make([]float64, cols0)
			for j := range scale {
				scale[j] = 1 / float64(j+3)
			}
			ss, srows, scols := tc.m.ScaledSupport(scale)
			if !slices.Equal(srows, rows) || !slices.Equal(scols, cols) || (srows == nil) != (rows == nil) ||
				(scols == nil) != (cols == nil) || !slices.Equal(ss.RowPtr, s.RowPtr) || !slices.Equal(ss.ColIdx, s.ColIdx) {
				t.Fatal("ScaledSupport's shape and ids are not Support's")
			}
			for p, j := range tc.m.ColIdx {
				if want := tc.m.Val[p] * scale[j]; math.Float64bits(ss.Val[p]) != math.Float64bits(want) {
					t.Fatalf("scaled value %d = %v, want %v", p, ss.Val[p], want)
				}
			}
			if len(ss.Val) > 0 && &ss.Val[0] == &tc.m.Val[0] {
				t.Fatal("ScaledSupport scaled the receiver's values")
			}
		})
	}
}
