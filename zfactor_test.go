package tiledqr

import (
	"math"
	"math/cmplx"
	"testing"
)

func checkZFactorization(t *testing.T, m, n int, opt Options) {
	t.Helper()
	a := RandomZDense(m, n, int64(m*1000+n))
	f, err := FactorComplex(a, opt)
	if err != nil {
		t.Fatalf("%v/%v %dx%d: %v", opt.Algorithm, opt.Kernels, m, n, err)
	}
	q := f.Q()
	r := f.R()
	rFull := NewZDense(m, n)
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < n; j++ {
			rFull.Set(i, j, r.At(i, j))
		}
	}
	if res := ZQRResidual(a, q, rFull); res > tol {
		t.Errorf("%v/%v %dx%d: residual %g", opt.Algorithm, opt.Kernels, m, n, res)
	}
	if ortho := ZOrthoResidual(q); ortho > tol {
		t.Errorf("%v/%v %dx%d: orthogonality %g", opt.Algorithm, opt.Kernels, m, n, ortho)
	}
}

func TestFactorComplexAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms {
		for _, kern := range []Kernels{TT, TS} {
			opt := Options{Algorithm: alg, Kernels: kern, TileSize: 8, InnerBlock: 3, Workers: 2}
			checkZFactorization(t, 32, 16, opt)
		}
	}
}

func TestFactorComplexShapes(t *testing.T) {
	for _, s := range [][2]int{{37, 21}, {8, 8}, {5, 5}, {7, 50}, {16, 1}, {1, 1}, {50, 7}} {
		checkZFactorization(t, s[0], s[1], Options{TileSize: 8, InnerBlock: 4, Workers: 3})
	}
}

// TestZRDiagonalReal: LAPACK's complex Householder convention produces an R
// with real diagonal entries.
func TestZRDiagonalReal(t *testing.T) {
	a := RandomZDense(24, 16, 5)
	f, err := FactorComplex(a, Options{TileSize: 8, InnerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	for i := 0; i < r.Rows; i++ {
		if math.Abs(imag(r.At(i, i))) > tol {
			t.Errorf("R(%d,%d) = %v not real", i, i, r.At(i, i))
		}
	}
}

func TestZThinQAndSolve(t *testing.T) {
	m, n := 40, 8
	a := RandomZDense(m, n, 9)
	f, err := FactorComplex(a, Options{TileSize: 8, InnerBlock: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	qt := f.ThinQ()
	if o := ZOrthoResidual(qt); o > tol {
		t.Errorf("ThinQ orthogonality %g", o)
	}
	if res := ZQRResidual(a, qt, f.R()); res > tol {
		t.Errorf("thin QR residual %g", res)
	}
	xTrue := RandomZDense(n, 1, 10)
	b := ZMul(a, xTrue)
	x, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if cmplx.Abs(x.At(i, 0)-xTrue.At(i, 0)) > 1e-9 {
			t.Fatalf("x(%d) = %v, want %v", i, x.At(i, 0), xTrue.At(i, 0))
		}
	}
}

func TestZDeterministicAcrossWorkers(t *testing.T) {
	a := RandomZDense(32, 16, 11)
	opt := Options{Algorithm: Greedy, TileSize: 8, InnerBlock: 4, Workers: 1}
	f1, err := FactorComplex(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	f4, err := FactorComplex(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1, r4 := f1.R(), f4.R()
	for i := 0; i < r1.Rows; i++ {
		for j := 0; j < r1.Cols; j++ {
			if r1.At(i, j) != r4.At(i, j) {
				t.Fatalf("R(%d,%d) differs between 1 and 4 workers", i, j)
			}
		}
	}
}
