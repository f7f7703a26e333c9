package dense

// This file holds the cache-tiled, register-blocked micro-kernels behind
// the public GEMM entry points in blas.go. All of them compute families
// of dot products in the "dot layout": both operands row-major with the
// reduction dimension contiguous (a·bᵀ directly; a·b goes through one
// blocked transpose of b — the pack step of a classic GEMM — and then
// runs the same kernels).
//
// Bitwise contract. Every kernel here reproduces the frozen naive loops
// in internal/dense/reftest bit for bit, at every worker count. The
// argument is structural, not numerical:
//
//   - each output element has exactly one accumulator, which sums its
//     products in ascending-k order — the reference order. Register
//     tiling only groups *independent* accumulators so their chains
//     interleave in the pipeline; it never reassociates a single sum
//     (and Go never fuses or reorders float arithmetic).
//   - cache blocking over k spills the accumulator to the output buffer
//     between k panels and reloads it. Spills are exact (no rounding),
//     so the sum is still the reference sum.
//   - worker partitioning (par.DoAligned) hands each output row to
//     exactly one goroutine; boundaries change who computes a row,
//     never the operations that produce it.
//
// There are no value-dependent skips: 0·NaN and 0·Inf reach the
// accumulator, so the kernels are IEEE-consistent with the reference by
// construction (the historical naive kernels dropped those terms).

// Register-tile and cache-panel geometry.
//
// The 4×2 register tile is sized for amd64's sixteen float registers:
// eight independent accumulator chains are enough to hide scalar add
// latency, and eight accumulators plus six loaded operands still fit
// without spilling (a 4×4 tile's sixteen accumulators measurably spill
// to the stack every iteration). Panels: a micro-kernel call streams
// mr+nr rows of length ≤ kcPanel — 6·256·8 B ≈ 12 KiB, inside L1d —
// while an ncPanel×kcPanel slab of b (256 KiB) stays L2-resident across
// the mcPanel-row sweep of a.
const (
	mr       = 4   // register-tile output rows
	nr       = 2   // register-tile output cols
	mcPanel  = 64  // rows of a per L2 block
	ncPanel  = 128 // rows of b (output cols) per panel
	kcPanel  = 256 // reduction slice per accumulator spill
	rankFast = 64  // inner-dim bound for the serving fast path
)

// mulTDot computes out[lo:hi, :] = a[:, :rank] · (b[:, :rank])ᵀ for
// row-major a and b sharing a column stride, writing rows [lo, hi) of
// out (stride b.Rows). Serving shapes — rank ≤ rankFast and few enough
// b rows for one panel — take the register-tiled loop directly; larger
// problems run the same micro-kernels under MC×NC×KC panel blocking.
func mulTDot(out, a, b *Mat, rank, lo, hi int) {
	// Fewer than mr rows hold no full register tile: the assembly path
	// would pack b (and zero its 32 KiB stack panel) only to run the same
	// row-edge kernel the loops below run — core scores single rows here.
	if useDotAsm() && hi-lo >= mr {
		mulTDotAsm(out, a, b, rank, lo, hi, false)
		return
	}
	m := b.Rows
	if rank <= kcPanel && m <= ncPanel {
		// Fast path: b[:, :rank] is at most 128·256·8 B and in practice
		// (rank ≤ 64, |Q| ≤ ncPanel) a few KiB — L1/L2-resident for the
		// whole sweep. Single k block, so accumulators start at zero and
		// out needs no pre-pass.
		mulTBlock(out, a, b, lo, hi, 0, m, 0, rank, true)
		return
	}
	// General path: k is cut into kcPanel slices with exact accumulator
	// spills into out, so out rows must start at zero.
	for i := lo; i < hi; i++ {
		orow := out.Data[i*m : (i+1)*m]
		for j := range orow {
			orow[j] = 0
		}
	}
	for jlo := 0; jlo < m; jlo += ncPanel {
		jhi := min(jlo+ncPanel, m)
		for ilo := lo; ilo < hi; ilo += mcPanel {
			ihi := min(ilo+mcPanel, hi)
			for klo := 0; klo < rank; klo += kcPanel {
				khi := min(klo+kcPanel, rank)
				mulTBlock(out, a, b, ilo, ihi, jlo, jhi, klo, khi, false)
			}
		}
	}
}

// mulTDotLower is mulTDot at full rank for a square, lower triangular b
// (row j zero past column j) and a finite a. On the assembly path the 4×2
// tile of output columns j, j+1 reduces over k < j+2 only: what it leaves
// out are products with an exact zero, ±0, and an accumulator that starts at
// +0 never reaches −0 under round-to-nearest, so adding them would change no
// bit. The result is mulTDot's, for about half the work.
func mulTDotLower(out, a, b *Mat, lo, hi int) {
	if useDotAsm() && hi-lo >= mr && b.Rows <= ncPanel {
		mulTDotAsm(out, a, b, b.Cols, lo, hi, true)
		return
	}
	mulTDot(out, a, b, b.Cols, lo, hi)
}

// mulTBlock runs the register-tiled micro-kernels over the output block
// [ilo, ihi) × [jlo, jhi), reducing over k ∈ [klo, khi). zero selects
// zero-initialised accumulators (single-block reductions) versus
// accumulate-into-out (k-panelled reductions over a pre-zeroed out).
func mulTBlock(out, a, b *Mat, ilo, ihi, jlo, jhi, klo, khi int, zero bool) {
	an, bn, m := a.Cols, b.Cols, b.Rows
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
		j := jlo
		for ; j+nr <= jhi; j += nr {
			b0 := b.Data[(j+0)*bn+klo : (j+0)*bn+khi]
			b1 := b.Data[(j+1)*bn+klo : (j+1)*bn+khi]
			dotTile4x2(o0, o1, o2, o3, j, a0, a1, a2, a3, b0, b1, zero)
		}
		for ; j < jhi; j++ {
			bj := b.Data[j*bn+klo : j*bn+khi]
			dotTile4x1(o0, o1, o2, o3, j, a0, a1, a2, a3, bj, zero)
		}
	}
	// Row edge: up to mr-1 leftover rows, one row of dots at a time.
	for ; i < ihi; i++ {
		ai := a.Data[i*an+klo : i*an+khi]
		oi := out.Data[i*m : (i+1)*m]
		dotRow(oi, jlo, jhi, ai, b, klo, khi, zero)
	}
}

// dotTile4x2 accumulates the 4×2 output tile o{0..3}[j, j+2) from four
// a rows and two b rows over their (equal-length) k slices. Eight
// independent register accumulators advance in ascending-k lockstep —
// enough chains to hide scalar add latency while accumulators plus the
// six loaded operands stay inside amd64's sixteen float registers (a
// 4×4 tile measurably spills). The k loop is unrolled by two; the
// second step's adds are sequentially dependent on the first's per
// accumulator, so per-element order is untouched.
func dotTile4x2(o0, o1, o2, o3 []float64, j int, a0, a1, a2, a3, b0, b1 []float64, zero bool) {
	k := len(a0)
	a1, a2, a3 = a1[:k], a2[:k], a3[:k]
	b0, b1 = b0[:k], b1[:k]
	var s00, s01 float64
	var s10, s11 float64
	var s20, s21 float64
	var s30, s31 float64
	if !zero {
		s00, s01 = o0[j], o0[j+1]
		s10, s11 = o1[j], o1[j+1]
		s20, s21 = o2[j], o2[j+1]
		s30, s31 = o3[j], o3[j+1]
	}
	p := 0
	for ; p+2 <= k; p += 2 {
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		bv0, bv1 := b0[p], b1[p]
		s00 += av0 * bv0
		s10 += av1 * bv0
		s20 += av2 * bv0
		s30 += av3 * bv0
		s01 += av0 * bv1
		s11 += av1 * bv1
		s21 += av2 * bv1
		s31 += av3 * bv1
		av0, av1, av2, av3 = a0[p+1], a1[p+1], a2[p+1], a3[p+1]
		bv0, bv1 = b0[p+1], b1[p+1]
		s00 += av0 * bv0
		s10 += av1 * bv0
		s20 += av2 * bv0
		s30 += av3 * bv0
		s01 += av0 * bv1
		s11 += av1 * bv1
		s21 += av2 * bv1
		s31 += av3 * bv1
	}
	if p < k {
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		bv0, bv1 := b0[p], b1[p]
		s00 += av0 * bv0
		s10 += av1 * bv0
		s20 += av2 * bv0
		s30 += av3 * bv0
		s01 += av0 * bv1
		s11 += av1 * bv1
		s21 += av2 * bv1
		s31 += av3 * bv1
	}
	o0[j], o0[j+1] = s00, s01
	o1[j], o1[j+1] = s10, s11
	o2[j], o2[j+1] = s20, s21
	o3[j], o3[j+1] = s30, s31
}

// dotTile4x1 is the column-edge micro-kernel: four rows of a against a
// single b row.
func dotTile4x1(o0, o1, o2, o3 []float64, j int, a0, a1, a2, a3, bj []float64, zero bool) {
	k := len(a0)
	a1, a2, a3, bj = a1[:k], a2[:k], a3[:k], bj[:k]
	var s0, s1, s2, s3 float64
	if !zero {
		s0, s1, s2, s3 = o0[j], o1[j], o2[j], o3[j]
	}
	for p := 0; p < k; p++ {
		bv := bj[p]
		s0 += a0[p] * bv
		s1 += a1[p] * bv
		s2 += a2[p] * bv
		s3 += a3[p] * bv
	}
	o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
}

// dotRow is the row-edge kernel: one a row dotted against b rows
// [jlo, jhi), four at a time for load reuse, over k ∈ [klo, khi).
func dotRow(oi []float64, jlo, jhi int, ai []float64, b *Mat, klo, khi int, zero bool) {
	bn := b.Cols
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		b0 := b.Data[(j+0)*bn+klo : (j+0)*bn+khi]
		b1 := b.Data[(j+1)*bn+klo : (j+1)*bn+khi]
		b2 := b.Data[(j+2)*bn+klo : (j+2)*bn+khi]
		b3 := b.Data[(j+3)*bn+klo : (j+3)*bn+khi]
		k := len(ai)
		b0, b1, b2, b3 = b0[:k], b1[:k], b2[:k], b3[:k]
		var s0, s1, s2, s3 float64
		if !zero {
			s0, s1, s2, s3 = oi[j], oi[j+1], oi[j+2], oi[j+3]
		}
		for p := 0; p < k; p++ {
			av := ai[p]
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		oi[j], oi[j+1], oi[j+2], oi[j+3] = s0, s1, s2, s3
	}
	for ; j < jhi; j++ {
		bj := b.Data[j*bn+klo : j*bn+khi]
		bj = bj[:len(ai)]
		var s float64
		if !zero {
			s = oi[j]
		}
		for p, av := range ai {
			s += av * bj[p]
		}
		oi[j] = s
	}
}

// tmulKBlock picks the k-panel length for the TMul tile sweep so one
// panel of a plus b rows (kb·(ac+bc) doubles) stays L1-resident while
// every register tile traverses it. Shape-only — never a function of the
// worker count — so the (exact) spill schedule is deterministic.
func tmulKBlock(ac, bc int) int {
	const l1Doubles = 4096 // 32 KiB of float64
	kb := l1Doubles / max(ac+bc, 1)
	return max(kb, 64)
}

// tmulRangeTiled accumulates rows [klo, khi) of the shared dimension of
// aᵀ·b into dst (a.Cols×b.Cols row-major; callers pass zeroed or
// partially-accumulated buffers — contributions are added). Register
// tiles of 4×4 output elements traverse k panels; each element's
// accumulator is spilled exactly between panels, so per-element
// accumulation stays in ascending-k order — bitwise the reference
// scatter loop's order. upper skips the tiles wholly below the diagonal.
func tmulRangeTiled(dst []float64, a, b *Mat, klo, khi int, upper bool) {
	ac, bc := a.Cols, b.Cols
	kb := tmulKBlock(ac, bc)
	asm := useDotAsm()
	for kplo := klo; kplo < khi; kplo += kb {
		kphi := min(kplo+kb, khi)
		i := 0
		for ; i+mr <= ac; i += mr {
			j := 0
			if upper {
				j = i // a multiple of mr, so of nr: columns left of it are below rows i..i+3
			}
			for ; j+nr <= bc; j += nr {
				if asm {
					tmulKernel4x2(
						&dst[(i+0)*bc+j], &dst[(i+1)*bc+j], &dst[(i+2)*bc+j], &dst[(i+3)*bc+j],
						&a.Data[kplo*ac+i], &b.Data[kplo*bc+j],
						int64(ac), int64(bc), int64(kphi-kplo))
				} else {
					tmulTile4x2(dst, a, b, i, j, kplo, kphi)
				}
			}
			for ; j < bc; j++ {
				tmulTile4x1(dst, a, b, i, j, kplo, kphi)
			}
		}
		for ; i < ac; i++ {
			tmulTileRow(dst, a, b, i, kplo, kphi)
		}
	}
}

// tmulTile4x2 accumulates dst[i..i+4)[j..j+2) += Σ_k a[k][i..i+4) ⊗
// b[k][j..j+2) over k ∈ [klo, khi), all eight accumulators in registers,
// loads contiguous within each k row.
func tmulTile4x2(dst []float64, a, b *Mat, i, j, klo, khi int) {
	ac, bc := a.Cols, b.Cols
	d0 := dst[(i+0)*bc : (i+0)*bc+bc]
	d1 := dst[(i+1)*bc : (i+1)*bc+bc]
	d2 := dst[(i+2)*bc : (i+2)*bc+bc]
	d3 := dst[(i+3)*bc : (i+3)*bc+bc]
	s00, s01 := d0[j], d0[j+1]
	s10, s11 := d1[j], d1[j+1]
	s20, s21 := d2[j], d2[j+1]
	s30, s31 := d3[j], d3[j+1]
	for k := klo; k < khi; k++ {
		arow := a.Data[k*ac+i : k*ac+i+4]
		brow := b.Data[k*bc+j : k*bc+j+2]
		av0, av1, av2, av3 := arow[0], arow[1], arow[2], arow[3]
		bv0, bv1 := brow[0], brow[1]
		s00 += av0 * bv0
		s10 += av1 * bv0
		s20 += av2 * bv0
		s30 += av3 * bv0
		s01 += av0 * bv1
		s11 += av1 * bv1
		s21 += av2 * bv1
		s31 += av3 * bv1
	}
	d0[j], d0[j+1] = s00, s01
	d1[j], d1[j+1] = s10, s11
	d2[j], d2[j+1] = s20, s21
	d3[j], d3[j+1] = s30, s31
}

// tmulTile4x1 is tmulTile4x4's column edge: four a columns, one b column.
func tmulTile4x1(dst []float64, a, b *Mat, i, j, klo, khi int) {
	ac, bc := a.Cols, b.Cols
	s0 := dst[(i+0)*bc+j]
	s1 := dst[(i+1)*bc+j]
	s2 := dst[(i+2)*bc+j]
	s3 := dst[(i+3)*bc+j]
	for k := klo; k < khi; k++ {
		arow := a.Data[k*ac+i : k*ac+i+4]
		bv := b.Data[k*bc+j]
		s0 += arow[0] * bv
		s1 += arow[1] * bv
		s2 += arow[2] * bv
		s3 += arow[3] * bv
	}
	dst[(i+0)*bc+j] = s0
	dst[(i+1)*bc+j] = s1
	dst[(i+2)*bc+j] = s2
	dst[(i+3)*bc+j] = s3
}

// tmulTileRow is tmulTile4x4's row edge: one a column against all b
// columns, the scatter loop of the reference restricted to that column.
func tmulTileRow(dst []float64, a, b *Mat, i, klo, khi int) {
	ac, bc := a.Cols, b.Cols
	drow := dst[i*bc : (i+1)*bc]
	for k := klo; k < khi; k++ {
		av := a.Data[k*ac+i]
		brow := b.Data[k*bc : (k+1)*bc]
		for j, bv := range brow {
			drow[j] += av * bv
		}
	}
}
