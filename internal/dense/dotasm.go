package dense

import (
	"sync/atomic"

	"csrplus/internal/simd"
)

// kernelTier is the tier the GEMMs dispatch on: simd.Detected unless a test
// lowers it (SetKernelTier in export_test.go) to hold every tier to the
// same references bit for bit. Atomic because kernels run inside par
// workers while a test may switch tiers between cases.
var kernelTier atomic.Uint32

func init() { kernelTier.Store(uint32(simd.Detected())) }

func tier() simd.Tier { return simd.Tier(kernelTier.Load()) }

// useDotAsm reports whether the packed assembly micro-kernels should be
// used: SSE2 pairs, and AVX2 octets beside them at the top tier.
func useDotAsm() bool { return tier() >= simd.SSE2 }

// packBPairs interleaves `pairs` couples of adjacent b rows, restricted
// to k ∈ [klo, khi), into dst: couple p (rows jlo+2p, jlo+2p+1)
// occupies dst[p·2·kk : (p+1)·2·kk] as kk [b0[t], b1[t]] pairs. This is
// the pack step feeding dotKernel4x2 — pure data movement (no
// arithmetic), so it cannot perturb results. One packed panel is reused
// across every row of a in the caller's range.
func packBPairs(dst []float64, b *Mat, jlo, pairs, klo, khi int) {
	bn := b.Cols
	kk := khi - klo
	for p := 0; p < pairs; p++ {
		j := jlo + 2*p
		b0 := b.Data[j*bn+klo : j*bn+khi]
		b1 := b.Data[(j+1)*bn+klo : (j+1)*bn+khi]
		out := dst[p*2*kk : (p+1)*2*kk]
		for t, v := range b0 {
			out[2*t] = v
			out[2*t+1] = b1[t]
		}
	}
}

// packBOctets is packBPairs for dotKernel4x8: octet p (rows jlo+8p …
// jlo+8p+7) occupies dst[p·8·kk : (p+1)·8·kk] as kk groups [b0[t] … b7[t]].
func packBOctets(dst []float64, b *Mat, jlo, octets, klo, khi int) {
	bn := b.Cols
	kk := khi - klo
	for p := 0; p < octets; p++ {
		out := dst[p*8*kk : (p+1)*8*kk]
		for c := 0; c < 8; c++ {
			j := jlo + 8*p + c
			for t, v := range b.Data[j*bn+klo : j*bn+khi] {
				out[8*t+c] = v
			}
		}
	}
}

// mulTDotAsm is mulTDot's amd64 body: the same MC×NC×KC panelling, but
// the full tiles run the packed micro-kernels — at tier AVX2 every full
// block of eight output columns takes dotKernel4x8, and the columns left
// over take dotKernel4x2 pairs, then the Go 4×1 edge. The j and k panel
// loops are hoisted outside the i sweep so each packed b panel is built
// once and reused by every row band; for an output element the k panels
// still arrive in ascending order with exact accumulator spills into out,
// so per-element accumulation order — and hence every bit — matches the
// pure-Go path and the reference. lower is mulTDotLower's.
func mulTDotAsm(out, a, b *Mat, rank, lo, hi int, lower bool) {
	m := b.Rows
	fast := rank <= kcPanel && m <= ncPanel
	if !fast {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*m : (i+1)*m]
			for j := range orow {
				orow[j] = 0
			}
		}
	}
	wide := tier() >= simd.AVX2
	// Serving shapes (|Q| columns × rank ≤ 64) pack into a few KiB; keep
	// that on the stack so the query hot path stays allocation-free.
	var stack [4096]float64
	var pack []float64
	for jlo := 0; jlo < m; jlo += ncPanel {
		jhi := min(jlo+ncPanel, m)
		octets := 0
		if wide {
			octets = (jhi - jlo) / 8
		}
		pairs := (jhi - jlo - 8*octets) / 2
		for klo := 0; klo < rank; klo += kcPanel {
			khi := min(klo+kcPanel, rank)
			kk := khi - klo
			need := (8*octets + 2*pairs) * kk
			switch {
			case need <= len(stack):
				pack = stack[:need]
			case cap(pack) >= need:
				pack = pack[:need]
			default:
				pack = make([]float64, need)
			}
			packBOctets(pack, b, jlo, octets, klo, khi)
			packBPairs(pack[8*octets*kk:], b, jlo+8*octets, pairs, klo, khi)
			for ilo := lo; ilo < hi; ilo += mcPanel {
				ihi := min(ilo+mcPanel, hi)
				mulTBlockAsm(out, a, b, pack, octets, ilo, ihi, jlo, jhi, klo, khi, fast, lower)
			}
		}
	}
}

// mulTBlockAsm is mulTBlock with the full tiles dispatched to the packed
// kernels against the packed b panel: octets (dotKernel4x8) from jlo, then
// pairs (dotKernel4x2). Column and row edges reuse the pure-Go edge
// kernels — they are bitwise-identical by the same structural argument, so
// mixing implementations inside one output is sound. lower is
// mulTDotLower's: the tile of columns [j, j+w) reduces over k < j+w.
func mulTBlockAsm(out, a, b *Mat, pack []float64, octets, ilo, ihi, jlo, jhi, klo, khi int, zero, lower bool) {
	an, m := a.Cols, b.Rows
	kk := khi - klo
	acc := int64(1)
	if zero {
		acc = 0
	}
	reach := func(j, w int) int64 {
		if lower {
			return int64(min(j+w, kk))
		}
		return int64(kk)
	}
	jp := jlo + 8*octets // first column of the pairs
	pairs := (jhi - jp) / 2
	pairPack := pack[8*octets*kk:]
	i := ilo
	for ; i+mr <= ihi; i += mr {
		a0 := a.Data[(i+0)*an+klo : (i+0)*an+khi]
		a1 := a.Data[(i+1)*an+klo : (i+1)*an+khi]
		a2 := a.Data[(i+2)*an+klo : (i+2)*an+khi]
		a3 := a.Data[(i+3)*an+klo : (i+3)*an+khi]
		o0 := out.Data[(i+0)*m : (i+0)*m+m]
		o1 := out.Data[(i+1)*m : (i+1)*m+m]
		o2 := out.Data[(i+2)*m : (i+2)*m+m]
		o3 := out.Data[(i+3)*m : (i+3)*m+m]
		for p := 0; p < octets; p++ {
			j := jlo + 8*p
			dotKernel4x8(&o0[j], &o1[j], &o2[j], &o3[j], &a0[0], &a1[0], &a2[0], &a3[0],
				&pack[p*8*kk], reach(j, 8), acc)
		}
		for p := 0; p < pairs; p++ {
			j := jp + 2*p
			dotKernel4x2(&o0[j], &o1[j], &o2[j], &o3[j], &a0[0], &a1[0], &a2[0], &a3[0],
				&pairPack[p*2*kk], reach(j, 2), acc)
		}
		if j := jp + 2*pairs; j < jhi {
			bj := b.Data[j*b.Cols+klo : j*b.Cols+khi]
			dotTile4x1(o0, o1, o2, o3, j, a0, a1, a2, a3, bj, zero)
		}
	}
	for ; i < ihi; i++ {
		ai := a.Data[i*an+klo : i*an+khi]
		oi := out.Data[i*m : (i+1)*m]
		dotRow(oi, jlo, jhi, ai, b, klo, khi, zero)
	}
}
