package core

// tier.go implements the quantized factor tiers: a factor (an IndexShard,
// and so an Index) whose F is stored as float32 or int8 with per-column
// scales instead of float64, cutting the O(rn) footprint 2x/8x at a
// bounded, measured entrywise cost surfaced through TruncationBound. A
// tier is a dense.Kind, chosen at save time (csrstat -quantize, or the
// library's Engine.SaveSnapshotTier) and carried in the snapshot header's
// tier word (persist2.go); serving code is oblivious — every tier is a
// dense.Typed and the one scan (shard.go) reads them all through the same
// kernel entry.
//
// It also owns the mmap lifetime handle: an Index returned by MapIndex
// views factor blocks of a memory mapping, and Close releases it. The
// rules for who calls Close when generations swap live in DESIGN.md
// §13; the short version is that the reload manager
// releases a generation only after the serve layer's drain-on-swap
// guarantee says no in-flight query can still touch it.

import (
	"fmt"
	"os"
	"slices"
	"sync"

	"csrplus/internal/dense"
)

// ParseTier parses a -quantize flag value into the factor's storage kind
// (dense.Kind names the tiers the way the flags spell them). "" and "none"
// mean the exact tier, matching "no -quantize flag".
func ParseTier(s string) (dense.Kind, error) {
	switch s {
	case "", "none", "f64", "float64":
		return dense.F64, nil
	case "f32", "float32":
		return dense.F32, nil
	case "int8", "i8":
		return dense.I8, nil
	}
	return dense.F64, fmt.Errorf("core: unknown quantization tier %q (want f64, f32 or int8): %w", s, ErrParams)
}

// QuantBound is the shared entrywise quantisation bound of the served
// product F'F'ᵀ: with measured per-column dequantisation errors ferr and
// served column maxima fmax (so F' = F + ΔF with |ΔF_{*,j}| ≤ ferr_j,
// |F'_{*,j}| ≤ fmax_j),
//
//	|c·(F'F'ᵀ − FFᵀ)_ik| ≤ c·Σ_j (fmax_j·ferr_j + fmax_j·ferr_j + ferr_j·ferr_j)
//
// (expand F'F'ᵀ − FFᵀ = F'ΔFᵀ + ΔF F'ᵀ − ΔF ΔFᵀ and bound each term by
// column). A nil ferr is the exact tier: 0. Index.QuantizationBound
// evaluates it over the whole factor; the sharded router evaluates the
// identical formula from combined per-shard maxima (ColMaxes) and any
// shard's QuantErrs.
//
// Like ScoreBound it carries roundingSlack, over scores of size c·Σ_j
// fmax_j².
func QuantBound(c float64, fmax, ferr []float64) float64 {
	if ferr == nil {
		return 0
	}
	b, size := 0.0, 0.0
	for j, f := range fmax {
		size += f * f
		e := ferr[j]
		b += f*e + f*e + e*e
	}
	return c*b + roundingSlack(len(fmax), c*size)
}

// QuantizationBound returns a rigorous bound on the entrywise error a
// quantized tier adds to every query answer relative to the exact
// float64 factors the index was quantized from: 0 for dense.F64. The
// per-column dequantisation errors are measured (not worst-case) at
// quantisation time and persisted with the index, so the bound is valid
// for exactly the factors being served. The +1 self-similarity and the
// ×c scale are applied identically in both tiers and cancel.
func (ix *Index) QuantizationBound() float64 {
	if ix.fqerr == nil {
		return 0
	}
	ix.quantOnce.Do(func() {
		ix.quantBound = QuantBound(ix.c, ix.ColMaxes(), ix.fqerr)
	})
	return ix.quantBound
}

// Quantize returns a new Index whose factor is stored at tier,
// quantized from ix's stored rows (an implicit row is zeros on every tier,
// and a zero row moves neither a column's scale nor its measured error).
// dense.F64 returns ix unchanged, whatever ix's own tier. Quantizing an
// already-quantized index is rejected: re-coding codes would compound
// errors invisibly, and the measured error vectors would no longer be
// against exact factors.
func (ix *Index) Quantize(tier dense.Kind) (*Index, error) {
	if tier == dense.F64 {
		return ix, nil
	}
	if ix.Tier() != dense.F64 {
		return nil, fmt.Errorf("core: cannot re-quantize a %v-tier index: %w", ix.Tier(), ErrParams)
	}
	quant := dense.QuantizeF32
	if tier == dense.I8 {
		quant = dense.QuantizeI8
	}
	f, fqerr := quant(ix.f.Mat())
	return ix.withFactor(slices.Clone(ix.ids), f, fqerr), nil
}

// withFactor is ix's build metadata over another factor, such as a
// quantized copy of ix's own, which keeps its build id.
func (ix *Index) withFactor(ids []int32, f *dense.Typed, fqerr []float64) *Index {
	return &Index{
		IndexShard: IndexShard{n: ix.n, hi: ix.n, c: ix.c, rank: ix.rank, build: ix.build, clamp: ix.clamp, ids: ids, f: f, fqerr: fqerr},
		iters:      ix.iters,
		sigma:      slices.Clone(ix.sigma),
		precomp:    ix.precomp,
		stages:     ix.stages,
		qrows:      ix.qrows,
		walSeq:     ix.walSeq,
		graph:      ix.graph,
	}
}

// mapping owns one memory-mapped snapshot file. munmapFile is idempotent
// through the Once so double-Close is safe.
type mapping struct {
	data []byte
	file *os.File // the mapped file, open for pread of the graph section
	once sync.Once
	err  error
}

func (m *mapping) close() error {
	if m == nil {
		return nil
	}
	m.once.Do(func() {
		m.err = munmapFile(m.data)
		if m.file != nil {
			if err := m.file.Close(); m.err == nil {
				m.err = err
			}
		}
	})
	return m.err
}

// Close releases the memory mapping backing a mapped index (MapIndex);
// it is a no-op for decoded indexes and safe to call more than once.
// After Close, the factor of a mapped index must not be touched:
// the serving lifecycle guarantees this by draining in-flight queries
// before releasing a generation (see DESIGN.md).
func (ix *Index) Close() error {
	return ix.mapped.close()
}

// Mapped reports whether the index's factor is a zero-copy view over a
// memory-mapped file (and therefore whether Close is load-bearing).
func (ix *Index) Mapped() bool { return ix.mapped != nil }
