package dense_test

// The full-SVD reference lives in reftest, beside the other kernels only
// tests call; these are its tests, under the names they had when it was
// part of dense.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
)

func checkOrthonormalCols(t *testing.T, q *dense.Mat, tol float64) {
	t.Helper()
	g := dense.TMul(q, q)
	if !g.Equal(dense.Eye(q.Cols), tol) {
		t.Fatalf("columns not orthonormal: QᵀQ deviates by %g", g.Sub(dense.Eye(q.Cols)).MaxAbs())
	}
}

func TestSVDJacobiReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{1, 1}, {6, 4}, {10, 10}, {50, 8}} {
		a := randMat(rng, dims[0], dims[1])
		res, err := reftest.SVDJacobi(a)
		if err != nil {
			t.Fatalf("reftest.SVDJacobi(%v): %v", dims, err)
		}
		checkOrthonormalCols(t, res.U, 1e-9)
		checkOrthonormalCols(t, res.V, 1e-9)
		for i := 1; i < len(res.S); i++ {
			if res.S[i] > res.S[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", res.S)
			}
		}
		recon := dense.Mul(dense.Mul(res.U, dense.Diag(res.S)), res.V.T())
		if !recon.Equal(a, 1e-9) {
			t.Fatalf("U S Vᵀ != A at dims %v (maxdiff %g)", dims, recon.Sub(a).MaxAbs())
		}
	}
}

func TestSVDJacobiKnownValues(t *testing.T) {
	// diag(3, 2, 1) has those exact singular values.
	res, err := reftest.SVDJacobi(dense.Diag([]float64{1, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, s := range res.S {
		if math.Abs(s-want[i]) > 1e-12 {
			t.Fatalf("S = %v, want %v", res.S, want)
		}
	}
}

func TestSVDJacobiRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := dense.NewMat(5, 3)
	u := []float64{1, 2, 3, 4, 5}
	v := []float64{1, -1, 2}
	for i := range u {
		for j := range v {
			a.Set(i, j, u[i]*v[j])
		}
	}
	res, err := reftest.SVDJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	wantS1 := dense.Norm2(u) * dense.Norm2(v)
	if math.Abs(res.S[0]-wantS1) > 1e-10 {
		t.Fatalf("S[0] = %v, want %v", res.S[0], wantS1)
	}
	if res.S[1] > 1e-10 || res.S[2] > 1e-10 {
		t.Fatalf("tail singular values not ~0: %v", res.S)
	}
	recon := dense.Mul(dense.Mul(res.U, dense.Diag(res.S)), res.V.T())
	if !recon.Equal(a, 1e-9) {
		t.Fatal("rank-1 reconstruction failed")
	}
}

func TestSVDJacobiWideRejected(t *testing.T) {
	if _, err := reftest.SVDJacobi(dense.NewMat(2, 5)); !errors.Is(err, dense.ErrShape) {
		t.Fatalf("err = %v, want dense.ErrShape", err)
	}
}
