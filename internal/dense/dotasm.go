package dense

import "sync/atomic"

// dotAsmDisabled lets tests force the pure-Go micro-kernels on builds
// that carry the assembly ones, so the two implementations can be
// differentially compared bit for bit (see SetGenericKernels in
// export_test.go). Atomic because kernels run inside par workers while
// a test may flip the flag between cases.
var dotAsmDisabled atomic.Bool

// useDotAsm reports whether the packed SSE2 micro-kernels should be
// used: compiled in (amd64) and not disabled by a test.
func useDotAsm() bool { return dotAsmAvailable && !dotAsmDisabled.Load() }

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

// mulTDotAsm is mulTDot's amd64 body: the same MC×NC×KC panelling, but
// the full 4×2 tiles run the packed SSE2 micro-kernel. The j and k
// panel loops are hoisted outside the i sweep so each packed b panel is
// built once and reused by every row band; for an output element the k
// panels still arrive in ascending order with exact accumulator spills
// into out, so per-element accumulation order — and hence every bit —
// matches the pure-Go path and the reference. lower is mulTDotLower's.
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
	// Serving shapes (|Q| pairs × rank ≤ 64) pack into a few KiB; keep
	// that on the stack so the query hot path stays allocation-free.
	var stack [4096]float64
	var pack []float64
	for jlo := 0; jlo < m; jlo += ncPanel {
		jhi := min(jlo+ncPanel, m)
		pairs := (jhi - jlo) / 2
		for klo := 0; klo < rank; klo += kcPanel {
			khi := min(klo+kcPanel, rank)
			kk := khi - klo
			need := pairs * 2 * kk
			switch {
			case need <= len(stack):
				pack = stack[:need]
			case cap(pack) >= need:
				pack = pack[:need]
			default:
				pack = make([]float64, need)
			}
			packBPairs(pack, b, jlo, pairs, klo, khi)
			for ilo := lo; ilo < hi; ilo += mcPanel {
				ihi := min(ilo+mcPanel, hi)
				mulTBlockAsm(out, a, b, pack, ilo, ihi, jlo, jhi, klo, khi, fast, lower)
			}
		}
	}
}

// mulTBlockAsm is mulTBlock with the full 4×2 tiles dispatched to
// dotKernel4x2 against the packed b panel. Column and row edges reuse
// the pure-Go edge kernels — they are bitwise-identical by the same
// structural argument, so mixing implementations inside one output is
// sound. lower is mulTDotLower's.
func mulTBlockAsm(out, a, b *Mat, pack []float64, ilo, ihi, jlo, jhi, klo, khi int, zero, lower bool) {
	an, m := a.Cols, b.Rows
	kk := khi - klo
	acc := int64(1)
	if zero {
		acc = 0
	}
	pairs := (jhi - jlo) / 2
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
		for p := 0; p < pairs; p++ {
			j, k := jlo+2*p, kk
			if lower {
				k = min(j+2, kk)
			}
			dotKernel4x2(&o0[j], &o1[j], &o2[j], &o3[j], &a0[0], &a1[0], &a2[0], &a3[0],
				&pack[p*2*kk], int64(k), acc)
		}
		if j := jlo + 2*pairs; j < jhi {
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
