package dense

// typed.go is the typed-source path behind the quantized index tiers: a
// read-only matrix whose elements are stored as float64, float32, or int8
// with per-column dequantisation scales, plus a rank-truncated GEMM that
// dequantises rows in cache-sized bands and feeds them to the same
// register-tiled micro-kernels the float64 path uses.
//
// The float64 kind is a zero-cost view over a []float64 (the mmap'd
// snapshot blocks), and every Typed entry point delegates straight to the
// float64 kernels for it — bitwise-identical to the untyped path. The
// quantised kinds trade entrywise accuracy (bounded, measured at
// quantisation time) for a 2x/8x smaller footprint and proportionally
// less memory bandwidth on the factor streams.
//
// Determinism contract: dequantisation is elementwise (value = stored *
// scale, in IEEE double), so every kernel here inherits the bitwise
// worker-count-independence of the kernels it feeds.

import (
	"fmt"
	"math"

	"csrplus/internal/par"
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

// At dequantises element (i, j).
func (t *Typed) At(i, j int) float64 {
	switch t.Kind {
	case F64:
		return t.F64[i*t.Cols+j]
	case F32:
		return float64(t.F32[i*t.Cols+j])
	default:
		return float64(t.I8[i*t.Cols+j]) * t.Scale[j]
	}
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

// PickRows dequantises the rows idx, in order, into a fresh
// len(idx) x Cols float64 matrix — the typed counterpart of
// (*Mat).PickRows, used to gather [U]_{Q,*}.
func (t *Typed) PickRows(idx []int) *Mat {
	out := NewMat(len(idx), t.Cols)
	for k, i := range idx {
		t.RowInto(i, out.Row(k))
	}
	return out
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

// Copy returns a Typed whose payload and scale vector live in freshly
// allocated memory — for detaching a view from storage the caller does
// not control the lifetime of, e.g. factor slices over an mmap.
func (t *Typed) Copy() *Typed {
	c := &Typed{Kind: t.Kind, Rows: t.Rows, Cols: t.Cols}
	if t.Scale != nil {
		c.Scale = append([]float64(nil), t.Scale...)
	}
	switch t.Kind {
	case F64:
		c.F64 = append([]float64(nil), t.F64...)
	case F32:
		c.F32 = append([]float32(nil), t.F32...)
	default:
		c.I8 = append([]int8(nil), t.I8...)
	}
	return c
}

// ColAbsMax returns the per-column maxima max_i |t_ij| of the
// dequantised matrix — the inputs of the truncation/quantisation error
// bounds.
func (t *Typed) ColAbsMax() []float64 {
	mx := make([]float64, t.Cols)
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			if a := math.Abs(t.At(i, j)); a > mx[j] {
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

// dequantBandRows is how many rows MulTRankTypedInto dequantises per
// inner band: band*Cols float64s must stay comfortably L2-resident next
// to the b operand, and the band must be long enough to amortise the
// dequantisation pass over the |Q| dot products each row feeds.
const dequantBandRows = 512

// MulTRankTypedInto computes a[:, :rank] * (b[:, :rank])ᵀ into out — the
// typed-source counterpart of MulTRankInto. The F64 kind delegates to
// MulTRankInto on a zero-copy view, so its results are bitwise-identical
// to the untyped path. Quantised kinds dequantise a in row bands into a
// per-worker scratch buffer and run the same register-tiled micro-kernels
// over the dequantised band; results are bitwise-deterministic at every
// worker count (each output row is produced by exactly one goroutine from
// elementwise-dequantised inputs) but differ from the exact answer by the
// quantisation error the tier's bound reports.
func MulTRankTypedInto(out *Mat, a *Typed, b *Mat, rank int) *Mat {
	if a.Kind == F64 {
		return MulTRankInto(out, a.Mat(), b, rank)
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulTRankTyped %dx%d * (%dx%d)ᵀ: %v", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape))
	}
	if rank < 0 {
		panic(fmt.Sprintf("dense: MulTRankTyped rank %d: %v", rank, ErrShape))
	}
	if rank > a.Cols {
		rank = a.Cols
	}
	out = out.Reuse(a.Rows, b.Rows)
	if rank == 0 {
		for i := range out.Data {
			out.Data[i] = 0
		}
		return out
	}
	flops := int64(a.Rows) * int64(b.Rows) * int64(rank)
	par.DoAligned(a.Rows, mr, flops, func(lo, hi int) {
		buf := make([]float64, min(dequantBandRows, hi-lo)*a.Cols)
		mulTDequantRows(out, 0, a, b, rank, lo, hi, buf)
	})
	return out
}

// mulTDequantRows writes rows [lo, hi) of a quantised a[:, :rank] *
// (b[:, :rank])ᵀ to rows [lo-outLo, hi-outLo) of out, dequantising a
// through buf dequantBandRows rows at a time. buf holds at least
// min(dequantBandRows, hi-lo) * a.Cols floats.
func mulTDequantRows(out *Mat, outLo int, a *Typed, b *Mat, rank, lo, hi int, buf []float64) {
	m := b.Rows
	var aBand, outBand Mat
	for bl := lo; bl < hi; bl += dequantBandRows {
		bh := min(bl+dequantBandRows, hi)
		rows := bh - bl
		aBand = Mat{Rows: rows, Cols: a.Cols, Data: buf[:rows*a.Cols]}
		for i := bl; i < bh; i++ {
			a.RowInto(i, aBand.Row(i-bl))
		}
		outBand = Mat{Rows: rows, Cols: m, Data: out.Data[(bl-outLo)*m : (bh-outLo)*m]}
		mulTDot(&outBand, &aBand, b, rank, 0, rows)
	}
}

// MulTRankTypedRowsInto is MulTRankRowsInto for a typed a: rows [lo, hi)
// of the product into out ((hi-lo) x b.Rows) on the calling goroutine,
// bit for bit MulTRankTypedInto's. deq is the caller's dequantisation
// scratch, grown when too small and returned for the next call, so a
// banded caller allocates nothing per band; the F64 kind never touches it.
func MulTRankTypedRowsInto(out *Mat, a *Typed, b *Mat, rank, lo, hi int, deq []float64) (*Mat, []float64) {
	if a.Kind == F64 {
		view := Mat{Rows: a.Rows, Cols: a.Cols, Data: a.F64}
		return MulTRankRowsInto(out, &view, b, rank, lo, hi), deq
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulTRankTypedRows %dx%d * (%dx%d)ᵀ: %v", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape))
	}
	if rank < 0 || lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("dense: MulTRankTypedRows rank %d rows [%d, %d) of %d: %v", rank, lo, hi, a.Rows, ErrShape))
	}
	if rank > a.Cols {
		rank = a.Cols
	}
	out = out.Reuse(hi-lo, b.Rows)
	if rank == 0 {
		for i := range out.Data {
			out.Data[i] = 0
		}
		return out, deq
	}
	if need := min(dequantBandRows, hi-lo) * a.Cols; cap(deq) < need {
		deq = make([]float64, need)
	}
	mulTDequantRows(out, lo, a, b, rank, lo, hi, deq[:cap(deq)])
	return out, deq
}
