package dense

import (
	"fmt"
	"math"

	"csrplus/internal/par"
)

// Mul returns a*b. It panics if the inner dimensions differ.
//
// The kernel packs b once through a blocked transpose (so the reduction
// dimension is contiguous in both operands — the pack step of a classic
// GEMM) and then runs the register-tiled dot micro-kernels in tile.go
// under MC×NC×KC cache blocking. Rows of the output are partitioned
// across par.Workers goroutines on register-tile boundaries; each output
// element is accumulated by exactly one goroutine in ascending-k order —
// the reference order — so results are bitwise-deterministic at every
// worker count and bitwise-equal to reftest.Mul.
func Mul(a, b *Mat) *Mat {
	return MulInto(NewMat(a.Rows, b.Cols), a, b)
}

// MulInto computes a*b into out, which must be a.Rows x b.Cols and share no
// storage with a or b, and returns it: Mul with the result's storage given,
// by Mul's kernels, to Mul's bits. Every element of out is written and none
// is read.
func MulInto(out, a, b *Mat) *Mat {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Mul %dx%d * %dx%d into %dx%d: %v", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols, ErrShape))
	}
	if a.Rows == 0 || b.Cols == 0 || a.Cols == 0 {
		clear(out.Data[:out.Rows*out.Cols])
		return out
	}
	bt := b.T()
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	par.DoAligned(a.Rows, mr, flops, func(lo, hi int) {
		mulTDot(out, a, bt, a.Cols, lo, hi)
	})
	return out
}

// mulInPlaceBlock is how many rows MulInPlace takes in a block it cannot
// write straight into place: enough that the block of a tall-skinny product
// clears par's threshold and fans out.
const mulInPlaceBlock = 4096

// MulInPlace returns a*b computed into a's own storage, which it consumes:
// the result, a.Rows x b.Cols, is a view of a.Data's leading
// a.Rows·b.Cols elements. b may be no wider than a. The rows are taken in
// blocks. From row lo, output rows up to lo·k/w (k = a.Cols, w = b.Cols)
// lie below every input row not yet read, so such a block is written
// straight into place; it grows by k/w a step. The others — the first, and
// every one when w = k — are computed into spare, dead memory the call may
// overwrite (nil, or too short for a block, and it allocates one), and
// copied into place once their input is read. Each output element is the
// dot product Mul forms, summed in the same ascending-k order by the same
// kernels, so the result is Mul(a, b) bit for bit; the blocks only decide
// when it is written.
func MulInPlace(a, b *Mat, spare []float64) *Mat {
	if a.Cols != b.Rows || b.Cols > a.Cols {
		panic(fmt.Sprintf("dense: MulInPlace %dx%d * %dx%d: %v", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape))
	}
	k, w := a.Cols, b.Cols
	out := &Mat{Rows: a.Rows, Cols: w, Data: a.Data[:a.Rows*w]}
	if a.Rows == 0 || w == 0 {
		return out
	}
	bt := b.T()
	blk := min(mulInPlaceBlock, a.Rows)
	if len(spare) < blk*w {
		spare = make([]float64, blk*w)
	}
	for lo := 0; lo < a.Rows; {
		hi := min(lo*k/w, a.Rows)
		direct := hi > lo
		if !direct {
			hi = min(lo+blk, a.Rows)
		}
		in := &Mat{Rows: hi - lo, Cols: k, Data: a.Data[lo*k : hi*k]}
		dst := out.Data[lo*w : hi*w]
		if !direct {
			dst = spare[:(hi-lo)*w]
		}
		blockOut := &Mat{Rows: hi - lo, Cols: w, Data: dst}
		par.DoAligned(hi-lo, mr, int64(hi-lo)*int64(k)*int64(w), func(l, h int) {
			mulTDot(blockOut, in, bt, k, l, h)
		})
		if !direct {
			copy(out.Data[lo*w:hi*w], dst) // over rows of a before hi: read
		}
		lo = hi
	}
	return out
}

// MulT returns a * bᵀ without materialising bᵀ. This is the query-phase
// GEMM of Algorithm 1 (Z · [U]_{Q,*}ᵀ, shape n x r times (|Q| x r)ᵀ).
func MulT(a, b *Mat) *Mat {
	return MulTInto(nil, a, b)
}

// MulTInto computes a * bᵀ into out, reusing out's backing array when its
// capacity suffices (pass nil to allocate). Any previous contents of out
// are overwritten. It returns the result matrix, which is out itself
// whenever out had capacity.
//
// The serving shapes (inner dimension = factor rank ≤ 64, |Q| output
// columns) take the register-tiled fast path in tile.go directly; larger
// shapes run the same micro-kernels under cache panelling. Output rows
// are partitioned across par.Workers goroutines on tile boundaries;
// every output element keeps one accumulator advancing in ascending-k
// order inside exactly one goroutine, so results are bitwise-
// deterministic at every worker count and bitwise-equal to reftest.MulT.
// It is the parallel wrapper over the row-range kernel
// (MulTTypedRowsInto, typed.go).
func MulTInto(out, a, b *Mat) *Mat {
	ta := TypedFromMat(a)
	out = mulTPrep(out, ta, b, 0, a.Rows)
	flops := int64(a.Rows) * int64(b.Rows) * int64(a.Cols)
	par.DoAligned(a.Rows, mr, flops, func(lo, hi int) {
		mulTRows(out, 0, ta, b, lo, hi, nil)
	})
	return out
}

// MulTRankInto is MulTInto. rank is ignored; it stays only because the
// benchmark harness (csrload) passes it (ROADMAP item 1 Step B).
func MulTRankInto(out, a, b *Mat, _ int) *Mat {
	return MulTInto(out, a, b)
}

// tmulMaxChunks bounds TMul's reduction grid: at most this many partial
// output buffers exist at once (the deterministic reduction sums them in
// chunk order). tmulMaxPartial bounds their combined footprint in floats,
// so a TMul with a large output never amplifies memory by the full grid.
const (
	tmulMaxChunks  = 64
	tmulMaxPartial = 1 << 22 // 32 MiB of float64 partials
)

// TMul returns aᵀ * b without materialising aᵀ. Its natural loop scatters
// into output rows keyed by columns of a, so row partitioning would race;
// instead the shared-row dimension is cut into a par.Grid of contiguous
// chunks (a function of the problem size only, never of the worker
// count), each chunk accumulates into a private partial buffer, and the
// partials are summed in chunk order. Results are therefore identical at
// every GOMAXPROCS, though — unlike the row-parallel kernels — the
// chunked summation order differs from the serial reference kernel
// (reftest.TMul) by floating-point rounding; it is bitwise-equal to the
// fixed reordering reftest.TMulChunked at the same chunk length. Below
// the parallel threshold the single-chunk path is bitwise-equal to
// reftest.TMul itself.
//
// Within a chunk, tile.go's register-tiled sweep (tmulRangeTiled) holds
// 4×4 blocks of the output in registers across L1-sized k panels,
// spilling accumulators exactly between panels — per-element
// accumulation order is unchanged from the naive scatter loop.
//
// The kernel is tuned for tall-skinny operands (aᵀb with few columns on
// both sides — H₀ = VᵀUΣ and the SVD's Gram matrix): the partial buffers
// are then tiny next to the O(rows) work.
func TMul(a, b *Mat) *Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: TMul (%dx%d)ᵀ * %dx%d: %v", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape))
	}
	return tmul(a, b, false)
}

// Gram returns aᵀa, TMul(a, a) bit for bit (NaN payloads aside): it runs
// only the register tiles on or above the diagonal and mirrors them, as
// entry (i, j) sums the products (j, i) does, in the same order.
func Gram(a *Mat) *Mat {
	g := tmul(a, a, true)
	for i := 1; i < g.Rows; i++ {
		for j := 0; j < i; j++ {
			g.Data[i*g.Cols+j] = g.Data[j*g.Cols+i]
		}
	}
	return g
}

func tmul(a, b *Mat, upper bool) *Mat {
	out := NewMat(a.Cols, b.Cols)
	outLen := a.Cols * b.Cols
	flops := int64(a.Rows) * int64(outLen)
	maxChunks := tmulMaxChunks
	if outLen > 0 && tmulMaxPartial/outLen < maxChunks {
		maxChunks = tmulMaxPartial / outLen
	}
	if flops < par.DefaultThreshold || maxChunks < 2 || outLen == 0 {
		tmulRangeTiled(out.Data, a, b, 0, a.Rows, upper)
		return out
	}
	// Per-row flops is outLen; size chunks to ≥ ~128k flops each so the
	// grid stays coarse enough to amortise scheduling.
	minChunk := 1 + (1<<17)/outLen
	chunk, count := par.Grid(a.Rows, minChunk, maxChunks)
	if count < 2 {
		tmulRangeTiled(out.Data, a, b, 0, a.Rows, upper)
		return out
	}
	partials := make([]float64, count*outLen)
	par.Do(count, flops, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			klo := c * chunk
			khi := min(klo+chunk, a.Rows)
			tmulRangeTiled(partials[c*outLen:(c+1)*outLen], a, b, klo, khi, upper)
		}
	})
	for c := 0; c < count; c++ {
		for i, v := range partials[c*outLen : (c+1)*outLen] {
			out.Data[i] += v
		}
	}
	return out
}

// MulVec returns a * x as a fresh vector. It panics on dimension mismatch.
func MulVec(a *Mat, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("dense: MulVec %dx%d * vec(%d): %v", a.Rows, a.Cols, len(x), ErrShape))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Dot returns the inner product of x and y. It panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: Dot len %d vs %d: %v", len(x), len(y), ErrShape))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: Axpy len %d vs %d: %v", len(x), len(y), ErrShape))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
