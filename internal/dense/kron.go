package dense

import "fmt"

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

// Vec stacks the columns of x into a single column vector, per
// Definition 2.1: vec(X)[j*rows+i] = X[i, j].
func Vec(x *Mat) []float64 {
	v := make([]float64, x.Rows*x.Cols)
	for j := 0; j < x.Cols; j++ {
		for i := 0; i < x.Rows; i++ {
			v[j*x.Rows+i] = x.At(i, j)
		}
	}
	return v
}

// Unvec reverses Vec: it reshapes a rows*cols vector into a rows x cols
// matrix, column by column. It panics if len(v) != rows*cols.
func Unvec(v []float64, rows, cols int) *Mat {
	if len(v) != rows*cols {
		panic(fmt.Sprintf("dense: Unvec len %d into %dx%d: %v", len(v), rows, cols, ErrShape))
	}
	m := NewMat(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m.Set(i, j, v[j*rows+i])
		}
	}
	return m
}

// VecEye returns vec(I_n) without building I_n: a length-n² vector with 1s
// at positions j*n+j.
func VecEye(n int) []float64 {
	v := make([]float64, n*n)
	for j := 0; j < n; j++ {
		v[j*n+j] = 1
	}
	return v
}
