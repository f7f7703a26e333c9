package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
	"csrplus/internal/simd"
)

// mulDenseCase is one product of the fixture table Test_MulDense,
// Benchmark_MulDense and FuzzMulDense share: a matrix, and the widths of
// dense operand it is multiplied against.
type mulDenseCase struct {
	name   string
	m      func() *CSR
	widths []int
	// raw, when set, is the byte pattern b's float64 bits are cut from
	// (fuzzMat); otherwise b is standard normal.
	raw   []byte
	bench bool
}

// mulDenseWidths straddle the kernel's groups: below one group of eight,
// exactly one and two, a group and a single column, three groups (the
// rank-16 sketch), and seven groups with a two-column tail.
var mulDenseWidths = []int{1, 7, 8, 9, 16, 24, 58}

// specialBits repeats every class of float64 the lane contract names: a
// quiet and a signalling NaN with payloads, both infinities, both zeros,
// the smallest subnormal and the largest, and ordinary values between them.
var specialBits = func() []byte {
	var raw []byte
	for _, bits := range []uint64{
		0x7ff8000000000abc, 0x3ff0000000000000, 0xfff0000000000000, 0x8000000000000000,
		0x0000000000000001, 0xc00921fb54442d18, 0x7ff0000000000000, 0x7ff4000000000123,
		0x000fffffffffffff, 0x0000000000000000, 0xbfe0000000000000, 0x800fffffffffffff,
		0xfff8000000000001,
	} {
		for b := 0; b < 8; b++ {
			raw = append(raw, byte(bits>>(8*uint(b))))
		}
	}
	return raw
}()

var mulDenseCases = []mulDenseCase{
	{name: "no rows", widths: []int{0, 9}, m: func() *CSR { return NewCOO(0, 5).ToCSR() }},
	{name: "no entries", widths: []int{1, 24}, m: func() *CSR { return NewCOO(7, 5).ToCSR() }},
	{name: "one entry", widths: mulDenseWidths, m: func() *CSR {
		c := NewCOO(3, 4)
		_ = c.Add(1, 3, -2.5)
		return c.ToCSR()
	}},
	{name: "empty rows between full ones", widths: mulDenseWidths, m: func() *CSR {
		full, _ := randCSR(rand.New(rand.NewSource(61)), 40, 30, 0.25)
		c := NewCOO(40, 30)
		for i := 0; i < 40; i++ {
			for p := full.RowPtr[i]; i%3 != 1 && p < full.RowPtr[i+1]; p++ {
				_ = c.Add(i, int(full.ColIdx[p]), full.Val[p])
			}
		}
		return c.ToCSR()
	}},
	{name: "NaN payloads, infinities, signed zeros, subnormals", widths: mulDenseWidths, raw: specialBits[5:],
		m: func() *CSR { return csrFromBytes(13, 11, specialBits) }},
	// Parallel-sized (≈ 1.3M flops at 24 columns) with the stored entries
	// piled on the leading rows, as a graph's hubs pile them: an even split
	// of the row count gives the first worker of two almost all of them.
	{name: "hub rows first", widths: []int{9, 24}, m: hubCSR},
	// The WT stand-in's support: the matrix a csrload cold boot multiplies
	// seven times, against 24 columns.
	{name: "R-MAT support 38306x38369 nnz=251070", widths: []int{24}, bench: true, m: func() *CSR {
		c := NewCOO(1<<17, 1<<17)
		for _, e := range rmatTriples(17, 251070, 104) {
			_ = c.Add(e.Row, e.Col, e.Val)
		}
		s, _, _ := c.ToCSR().Support()
		return s
	}},
}

// hubCSR is 2000 x 300 with row i holding ≈ 300/(1+i/4) entries: ≈ 56k in
// all, half of them in the first 60 rows.
func hubCSR() *CSR {
	rng := rand.New(rand.NewSource(67))
	c := NewCOO(2000, 300)
	for i := 0; i < 2000; i++ {
		for _, j := range rng.Perm(300)[:max(1, 300/(1+i/4))] {
			_ = c.Add(i, j, rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

func (tc mulDenseCase) operand(m *CSR, k int) *dense.Mat {
	_, cols := m.Dims()
	if tc.raw != nil {
		return fuzzMat(cols, k, tc.raw, k)
	}
	rng := rand.New(rand.NewSource(int64(k)))
	b := dense.NewMat(cols, k)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b
}

// eachKernel runs body under the row body of every tier this build and CPU
// run — avx2, sse2 and go where all three exist — naming the tier.
func eachKernel(body func(kernel string)) {
	defer SetKernelTier(SetKernelTier(simd.Detected()))
	tiers := simd.Tiers()
	for i := len(tiers) - 1; i >= 0; i-- {
		SetKernelTier(tiers[i])
		body(tiers[i].String())
	}
}

// checkMulDense holds m·b — into a fresh matrix and into a dirty one — to
// reftest.CSRMulDense by bits, with b left as it was.
func checkMulDense(t *testing.T, what string, m *CSR, b *dense.Mat) {
	t.Helper()
	rows, _ := m.Dims()
	want := reftest.CSRMulDense(m.RowPtr, m.ColIdx, m.Val, rows, b)
	before := slices.Clone(b.Data)
	sparseBitEq(t, what+": MulDense", m.MulDense(b), want)
	dirty := dense.NewMat(rows, b.Cols)
	for i := range dirty.Data {
		dirty.Data[i] = math.Float64frombits(0x7ff8dead00000000 + uint64(i))
	}
	m.MulDenseInto(dirty, b)
	sparseBitEq(t, what+": MulDenseInto over a dirty panel", dirty, want)
	if !slices.EqualFunc(b.Data, before, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Errorf("%s: the dense operand was written to", what)
	}
}

func Test_MulDense(t *testing.T) {
	for _, tc := range mulDenseCases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m()
			for _, k := range tc.widths {
				b := tc.operand(m, k)
				eachKernel(func(kernel string) {
					for _, w := range []int{1, 2, 3} {
						prev := par.SetMaxWorkers(w)
						checkMulDense(t, fmt.Sprintf("k=%d %s workers=%d", k, kernel, w), m, b)
						par.SetMaxWorkers(prev)
					}
				})
			}
		})
	}
}

// TestMulDenseTierWidths: every width from 1 to 49 — up to six blocks of
// eight, so the AVX2 body's three-block sweeps with their two- and
// one-block remainders, and the four-column and single-column tails of
// every body — on IEEE specials and on a parallel-sized matrix, at every
// tier.
func TestMulDenseTierWidths(t *testing.T) {
	specials, hubs := csrFromBytes(13, 11, specialBits), hubCSR()
	for k := 1; k <= 49; k++ {
		b := fuzzMat(11, k, specialBits[5:], k)
		h := mulDenseCase{}.operand(hubs, k)
		eachKernel(func(kernel string) {
			checkMulDense(t, fmt.Sprintf("specials k=%d %s", k, kernel), specials, b)
			checkMulDense(t, fmt.Sprintf("hub rows k=%d %s", k, kernel), hubs, h)
		})
	}
}

// TestMulDenseIntoShapePanics: a panel of the wrong shape is refused before
// anything is written.
func TestMulDenseIntoShapePanics(t *testing.T) {
	m := hubCSR()
	b := dense.NewMat(300, 8)
	for name, out := range map[string]*dense.Mat{
		"short":     dense.NewMat(1999, 8),
		"wide":      dense.NewMat(2000, 9),
		"bad slice": {Rows: 2000, Cols: 8, Data: make([]float64, 2000*8-1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s panel accepted", name)
				}
			}()
			m.MulDenseInto(out, b)
		}()
	}
}

// Benchmark_MulDense prices one product on the table's large cases under
// either row body, into a panel the loop owns. Run with -cpu 1,2: the second
// column is also what the entry-balanced row split is worth.
func Benchmark_MulDense(b *testing.B) {
	for _, tc := range mulDenseCases {
		if !tc.bench {
			continue
		}
		m := tc.m()
		rows, _ := m.Dims()
		for _, k := range tc.widths {
			d := tc.operand(m, k)
			out := dense.NewMat(rows, k)
			eachKernel(func(kernel string) {
				b.Run(fmt.Sprintf("%s/k=%d/%s", tc.name, k, kernel), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m.MulDenseInto(out, d)
					}
					b.ReportMetric(2*float64(m.NNZ())*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			})
		}
	}
}

// FuzzMulDense differentially fuzzes all three SpMM kernels — MulDense
// (fresh and Into, assembly and pure-Go row bodies), MulDenseT and
// DenseMulCSR — against the reftest CSR references, with matrix shape,
// width, worker count, sparsity pattern and every float64 bit drawn from
// the corpus.
func FuzzMulDense(f *testing.F) {
	seeds := [][]byte{
		{},
		[]byte("csrplus spmm fuzz seed fedcba9876543210"),
		{0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xff,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80},
	}
	for _, raw := range seeds {
		f.Add(uint8(3), uint8(4), uint8(4), uint8(1), raw)
		f.Add(uint8(12), uint8(7), uint8(5), uint8(2), raw)
		f.Add(uint8(1), uint8(0), uint8(3), uint8(0), raw)
	}
	for _, k := range mulDenseWidths {
		f.Add(uint8(13), uint8(11), uint8(k), uint8(k), specialBits)
	}
	f.Fuzz(func(t *testing.T, rows, cols, k, workers uint8, raw []byte) {
		r, c, n := int(rows)%16, int(cols)%16, int(k)%64
		m := csrFromBytes(r, c, raw)
		b := fuzzMat(c, n, raw, 1)
		bT := fuzzMat(r, n, raw, 2)
		left := fuzzMat(n, r, raw, 5)
		prevW := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prevW)
		eachKernel(func(kernel string) {
			checkMulDense(t, kernel, m, b)
			sparseBitEq(t, kernel+": MulDenseT vs reftest.CSRMulDenseT",
				m.MulDenseT(bT), reftest.CSRMulDenseT(m.RowPtr, m.ColIdx, m.Val, r, c, bT))
		})
		sparseBitEq(t, "DenseMulCSR vs reftest.DenseMulCSR",
			DenseMulCSR(left, m), reftest.DenseMulCSR(left, m.RowPtr, m.ColIdx, m.Val, c))
	})
}

// TestMulDenseNaNPayloads: reftest.Diff counts any NaN equal to any other,
// so the suites above cannot see which payload survives a product or sum of
// two NaNs. Both assembly row bodies form the product with b's value first
// and add it to the accumulator, so they agree on the payload bit for bit.
// (The Go body's order is the compiler's: -race builds, for one, reorder.)
func TestMulDenseNaNPayloads(t *testing.T) {
	if simd.Detected() < simd.AVX2 {
		t.Skip("one assembly tier on this CPU")
	}
	c := NewCOO(1, 2)
	_ = c.Add(0, 0, math.Float64frombits(0x7ff8000000000abc))
	_ = c.Add(0, 1, math.Float64frombits(0xfff8000000000001))
	m := c.ToCSR()
	b := dense.NewMat(2, 49)
	for i := range b.Data {
		b.Data[i] = math.Float64frombits(0x7ff80000000f0000 + uint64(i))
	}
	b.Data[5], b.Data[49+30] = 1, -2
	defer SetKernelTier(SetKernelTier(simd.SSE2))
	want := m.MulDense(b)
	SetKernelTier(simd.AVX2)
	got := m.MulDense(b)
	for p := range want.Data {
		if g, w := math.Float64bits(got.Data[p]), math.Float64bits(want.Data[p]); g != w {
			t.Errorf("column %d: avx2 payload %x, sse2 %x", p, g, w)
		}
	}
}
