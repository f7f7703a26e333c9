package dense

// Kron returns the Kronecker (tensor) product a ⊗ b: a (p x q) and b (r x s)
// produce the (p*r) x (q*s) matrix of Definition 2.2 in the paper.
//
// This is the operator whose explicit materialisation makes the CSR-NI
// baseline unscalable; CSR+ exists to avoid calling it on anything larger
// than r x r. The implementation is kept simple and allocation-exact so the
// memory accountant can attribute its true cost.
func Kron(a, b *Mat) *Mat {
	p, q, r, s := a.Rows, a.Cols, b.Rows, b.Cols
	out := NewMat(p*r, q*s)
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			aij := a.At(i, j)
			if aij == 0 {
				continue
			}
			for k := 0; k < r; k++ {
				dst := out.Data[(i*r+k)*out.Cols+j*s:]
				brow := b.Data[k*s : (k+1)*s]
				for l, bv := range brow {
					dst[l] = aij * bv
				}
			}
		}
	}
	return out
}
