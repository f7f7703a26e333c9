package dense

// typed.go holds the factor representation phase II reads — a read-only
// matrix whose elements are stored as float64, float32, or int8 with
// per-column dequantisation scales — and the one kernel that multiplies a
// row range of it: MulTTypedRowsInto, which every phase-II product goes
// through (core's banded scan directly, whole float64 matrices via
// MulTInto in blas.go).
//
// The float64 kind is the exact tier: a zero-cost view over a []float64
// (heap factors, or the mmap'd snapshot blocks) fed to the register-tiled
// micro-kernels as it lies. The quantised kinds trade entrywise accuracy
// (bounded, measured at quantisation time) for a 2x/8x smaller footprint
// and proportionally less memory bandwidth on the factor streams; their
// rows are dequantised in cache-sized bands in front of the same
// micro-kernels.
//
// Determinism contract: dequantisation is elementwise (value = stored *
// scale, in IEEE double), so the kernel inherits the bitwise
// worker-count-independence of the micro-kernels it feeds.

import (
	"fmt"
	"math"
)

// Kind enumerates the element storage of a Typed matrix.
type Kind uint8

const (
	// F64 stores IEEE float64 elements — the exact tier.
	F64 Kind = iota
	// F32 stores IEEE float32 elements; dequantisation widens them.
	F32
	// I8 stores int8 codes with a per-column scale: value = code*scale.
	I8
)

// String names the kind the way the CLI flags spell it.
func (k Kind) String() string {
	switch k {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case I8:
		return "int8"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ElemSize returns the on-disk/in-memory bytes per element.
func (k Kind) ElemSize() int {
	switch k {
	case F64:
		return 8
	case F32:
		return 4
	case I8:
		return 1
	}
	panic(fmt.Sprintf("dense: ElemSize of unknown %v", k))
}

// Typed is a read-only row-major matrix with kind-selected element
// storage. Exactly one of F64/F32/I8 is non-nil (matching Kind); Scale
// holds the per-column dequantisation scales of the I8 kind and is nil
// otherwise. It is immutable after construction, so any number of
// goroutines may read it.
type Typed struct {
	Kind       Kind
	Rows, Cols int
	F64        []float64
	F32        []float32
	I8         []int8
	Scale      []float64
}

// TypedFromMat wraps m as an F64 Typed sharing m's backing array.
func TypedFromMat(m *Mat) *Typed {
	return &Typed{Kind: F64, Rows: m.Rows, Cols: m.Cols, F64: m.Data}
}

// Mat returns the F64 kind's data as a *Mat view (shared backing array).
// It panics for quantised kinds, which have no float64 representation to
// view — callers branch on Kind first.
func (t *Typed) Mat() *Mat {
	if t.Kind != F64 {
		panic(fmt.Sprintf("dense: Mat() on %v Typed", t.Kind))
	}
	return &Mat{Rows: t.Rows, Cols: t.Cols, Data: t.F64}
}

// Bytes reports the payload footprint: Rows*Cols elements at the kind's
// width, plus the scale vector.
func (t *Typed) Bytes() int64 {
	return int64(t.Rows)*int64(t.Cols)*int64(t.Kind.ElemSize()) + int64(len(t.Scale))*8
}

// RowInto dequantises row i into dst, which must have length ≥ Cols, and
// returns dst[:Cols].
func (t *Typed) RowInto(i int, dst []float64) []float64 {
	c := t.Cols
	dst = dst[:c]
	switch t.Kind {
	case F64:
		copy(dst, t.F64[i*c:(i+1)*c])
	case F32:
		row := t.F32[i*c : (i+1)*c]
		for j, v := range row {
			dst[j] = float64(v)
		}
	default:
		row := t.I8[i*c : (i+1)*c]
		for j, v := range row {
			dst[j] = float64(v) * t.Scale[j]
		}
	}
	return dst
}

// SliceRowsView returns a view (no copy) of rows [lo, hi). The view
// shares the backing arrays and the scale vector.
func (t *Typed) SliceRowsView(lo, hi int) *Typed {
	if lo < 0 || hi > t.Rows || lo > hi {
		panic(fmt.Sprintf("dense: SliceRowsView[%d:%d] of %d rows", lo, hi, t.Rows))
	}
	v := &Typed{Kind: t.Kind, Rows: hi - lo, Cols: t.Cols, Scale: t.Scale}
	switch t.Kind {
	case F64:
		v.F64 = t.F64[lo*t.Cols : hi*t.Cols]
	case F32:
		v.F32 = t.F32[lo*t.Cols : hi*t.Cols]
	default:
		v.I8 = t.I8[lo*t.Cols : hi*t.Cols]
	}
	return v
}

// ColAbsMax returns the per-column maxima max_i |t_ij| of the
// dequantised matrix — the inputs of the truncation/quantisation error
// bounds. The kind is resolved once per row, not per element: this pass
// runs over the exact tier's n x r factors on every bound rebuild.
func (t *Typed) ColAbsMax() []float64 {
	mx := make([]float64, t.Cols)
	buf := make([]float64, t.Cols)
	for i := 0; i < t.Rows; i++ {
		row := buf
		if t.Kind == F64 {
			row = t.F64[i*t.Cols : (i+1)*t.Cols]
		} else {
			t.RowInto(i, buf)
		}
		for j, v := range row {
			if a := math.Abs(v); a > mx[j] {
				mx[j] = a
			}
		}
	}
	return mx
}

// QuantizeF32 narrows m to the F32 kind. The second result is the
// measured per-column maximum absolute dequantisation error
// max_i |m_ij − float64(float32(m_ij))| — an exact entrywise bound for
// this matrix, not a worst-case ulp estimate.
func QuantizeF32(m *Mat) (*Typed, []float64) {
	t := &Typed{Kind: F32, Rows: m.Rows, Cols: m.Cols, F32: make([]float32, len(m.Data))}
	errs := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		out := t.F32[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			q := float32(v)
			out[j] = q
			if e := math.Abs(v - float64(q)); e > errs[j] {
				errs[j] = e
			}
		}
	}
	return t, errs
}

// QuantizeI8 quantises m to int8 codes with a per-column scale
// s_j = max_i |m_ij| / 127 (a zero column gets scale 0 and all-zero
// codes). Codes are round-to-nearest, so the dequantisation error is at
// most s_j/2 per entry; the second result is the measured per-column
// maximum |m_ij − code*s_j|, which is ≤ s_j/2 and usually tighter.
func QuantizeI8(m *Mat) (*Typed, []float64) {
	t := &Typed{
		Kind: I8, Rows: m.Rows, Cols: m.Cols,
		I8:    make([]int8, len(m.Data)),
		Scale: make([]float64, m.Cols),
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if a := math.Abs(v); a > t.Scale[j] {
				t.Scale[j] = a
			}
		}
	}
	for j := range t.Scale {
		t.Scale[j] /= 127
	}
	errs := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		out := t.I8[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s := t.Scale[j]
			if s == 0 {
				out[j] = 0
				continue
			}
			q := math.Round(v / s)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			out[j] = int8(q)
			if e := math.Abs(v - q*s); e > errs[j] {
				errs[j] = e
			}
		}
	}
	return t, errs
}

// dequantBandRows is how many rows the row-range kernel dequantises per
// inner band: band*Cols float64s must stay comfortably L2-resident next
// to the b operand, and the band must be long enough to amortise the
// dequantisation pass over the |Q| dot products each row feeds.
const dequantBandRows = 512

// MulTTypedRowsInto computes rows [lo, hi) of a * bᵀ into out, reshaped
// to (hi-lo) x b.Rows, on the calling goroutine — the one kernel entry
// behind phase II: core's banded scan partitions a's rows itself and calls
// it once per band, and MulTInto is its parallel wrapper for a whole
// float64 matrix. The F64 kind runs the register-tiled micro-kernels
// straight over the stored rows; quantised kinds dequantise
// dequantBandRows rows at a time into deq — the caller's scratch, grown
// when too small and returned for the next call, so a banded caller
// allocates nothing per band — and run the same micro-kernels over that.
// Every element is one dot product in index order over
// elementwise-dequantised inputs: bit for bit the product of the fully
// dequantised matrix, whatever the banding or the partition.
func MulTTypedRowsInto(out *Mat, a *Typed, b *Mat, lo, hi int, deq []float64) (*Mat, []float64) {
	out = mulTPrep(out, a, b, lo, hi)
	if need := min(dequantBandRows, hi-lo) * a.Cols; a.Kind != F64 && cap(deq) < need {
		deq = make([]float64, need)
	}
	mulTRows(out, lo, a, b, lo, hi, deq[:cap(deq)])
	return out, deq
}

// mulTPrep is the one preamble of the a·bᵀ family: it panics on
// mismatched column counts or a row range outside a and shapes out to
// (hi-lo) x b.Rows. An empty inner dimension zero-fills out: the kernels
// would write nothing, leaving a reused out's old values.
func mulTPrep(out *Mat, a *Typed, b *Mat, lo, hi int) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulT %dx%d * (%dx%d)ᵀ: %v", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape))
	}
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("dense: MulT rows [%d, %d) of %d: %v", lo, hi, a.Rows, ErrShape))
	}
	out = out.Reuse(hi-lo, b.Rows)
	if a.Cols == 0 {
		clear(out.Data)
	}
	return out
}

// mulTRows writes rows [lo, hi) of a * bᵀ to rows
// [lo-outLo, hi-outLo) of out. A quantised a goes through buf
// dequantBandRows rows at a time; buf then holds at least
// min(dequantBandRows, hi-lo) * a.Cols floats.
func mulTRows(out *Mat, outLo int, a *Typed, b *Mat, lo, hi int, buf []float64) {
	m := b.Rows
	if a.Kind == F64 { // nothing to dequantise: one band, the stored rows
		aBand := Mat{Rows: hi - lo, Cols: a.Cols, Data: a.F64[lo*a.Cols : hi*a.Cols]}
		outBand := Mat{Rows: hi - lo, Cols: m, Data: out.Data[(lo-outLo)*m : (hi-outLo)*m]}
		mulTDot(&outBand, &aBand, b, a.Cols, 0, hi-lo)
		return
	}
	var aBand, outBand Mat
	for bl := lo; bl < hi; bl += dequantBandRows {
		bh := min(bl+dequantBandRows, hi)
		rows := bh - bl
		aBand = Mat{Rows: rows, Cols: a.Cols, Data: buf[:rows*a.Cols]}
		for i := bl; i < bh; i++ {
			a.RowInto(i, aBand.Row(i-bl))
		}
		outBand = Mat{Rows: rows, Cols: m, Data: out.Data[(bl-outLo)*m : (bh-outLo)*m]}
		mulTDot(&outBand, &aBand, b, a.Cols, 0, rows)
	}
}
