package tiledqr

import (
	"math"
	"testing"
)

const tol = 1e-11

// checkFactorization verifies A = Q·R and QᵀQ = I for one configuration.
func checkFactorization(t *testing.T, m, n int, opt Options) {
	t.Helper()
	a := RandomDense(m, n, int64(m*1000+n))
	f, err := Factor(a, opt)
	if err != nil {
		t.Fatalf("%v/%v %dx%d nb=%d: %v", opt.Algorithm, opt.Kernels, m, n, opt.TileSize, err)
	}
	q := f.Q()
	r := f.R()
	// Pad R to m×n for the residual (Q is m×m).
	rFull := NewDense(m, n)
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < n; j++ {
			rFull.Set(i, j, r.At(i, j))
		}
	}
	if res := QRResidual(a, q, rFull); res > tol {
		t.Errorf("%v/%v %dx%d nb=%d ib=%d: residual %g", opt.Algorithm, opt.Kernels, m, n, opt.TileSize, opt.InnerBlock, res)
	}
	if ortho := OrthoResidual(q); ortho > tol {
		t.Errorf("%v/%v %dx%d nb=%d ib=%d: orthogonality %g", opt.Algorithm, opt.Kernels, m, n, opt.TileSize, opt.InnerBlock, ortho)
	}
	// R must be upper triangular.
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < min(i, r.Cols); j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %g below the diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestFactorAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms {
		for _, kern := range []Kernels{TT, TS} {
			opt := Options{Algorithm: alg, Kernels: kern, TileSize: 8, InnerBlock: 3, Workers: 2}
			checkFactorization(t, 40, 24, opt)
		}
	}
}

func TestFactorPlasmaTreeAndGrasap(t *testing.T) {
	for _, bs := range []int{1, 2, 3, 5} {
		opt := Options{Algorithm: PlasmaTree, BS: bs, TileSize: 8, InnerBlock: 4, Workers: 3}
		checkFactorization(t, 40, 16, opt)
	}
	for _, k := range []int{1, 2} {
		opt := Options{Algorithm: Grasap, GrasapK: k, TileSize: 8, InnerBlock: 4}
		checkFactorization(t, 40, 16, opt)
	}
}

// TestFactorShapes covers ragged edges, single tiles, wide matrices, and
// single rows/columns of tiles.
func TestFactorShapes(t *testing.T) {
	shapes := [][2]int{
		{40, 24}, // exact multiples
		{37, 21}, // ragged both
		{41, 8},  // ragged rows only
		{8, 8},   // single tile
		{5, 5},   // smaller than one tile
		{50, 7},  // single tile column, ragged
		{7, 50},  // wide: m < n
		{24, 40}, // wide, exact tiles
		{100, 3}, // very tall and skinny
		{9, 16},  // wide with ragged rows
		{16, 1},  // single column
		{1, 16},  // single row
		{1, 1},   // scalar
	}
	for _, s := range shapes {
		opt := Options{Algorithm: Greedy, TileSize: 8, InnerBlock: 3, Workers: 2}
		checkFactorization(t, s[0], s[1], opt)
	}
}

func TestFactorWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		opt := Options{Algorithm: Fibonacci, TileSize: 8, InnerBlock: 8, Workers: workers}
		checkFactorization(t, 48, 32, opt)
	}
}

func TestFactorTileSizes(t *testing.T) {
	for _, nb := range []int{1, 2, 5, 8, 13, 64} {
		opt := Options{Algorithm: Greedy, TileSize: nb, InnerBlock: min(4, nb)}
		checkFactorization(t, 40, 25, opt)
	}
}

// TestFactorDeterministicAcrossWorkers: the computed R must be identical
// regardless of worker count or algorithm execution order (the same
// arithmetic happens in a fixed dependency order).
func TestFactorDeterministicAcrossWorkers(t *testing.T) {
	a := RandomDense(48, 24, 3)
	opt := Options{Algorithm: Greedy, TileSize: 8, InnerBlock: 4, Workers: 1}
	f1, err := Factor(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	f4, err := Factor(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1, r4 := f1.R(), f4.R()
	for i := 0; i < r1.Rows; i++ {
		for j := 0; j < r1.Cols; j++ {
			if r1.At(i, j) != r4.At(i, j) {
				t.Fatalf("R(%d,%d) differs between 1 and 4 workers: %g vs %g", i, j, r1.At(i, j), r4.At(i, j))
			}
		}
	}
}

// TestRMatchesReferenceUpToSigns: |R| must match a direct Householder QR of
// the whole matrix regardless of the elimination tree.
func TestRMatchesReferenceUpToSigns(t *testing.T) {
	a := RandomDense(32, 16, 9)
	ref, err := Factor(a, Options{Algorithm: FlatTree, TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rRef := ref.R()
	for _, alg := range Algorithms {
		f, err := Factor(a, Options{Algorithm: alg, TileSize: 8, InnerBlock: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := f.R()
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < r.Cols; j++ {
				if d := math.Abs(math.Abs(r.At(i, j)) - math.Abs(rRef.At(i, j))); d > tol {
					t.Errorf("%v: |R(%d,%d)| differs from reference by %g", alg, i, j, d)
				}
			}
		}
	}
}

// TestApplyQRoundTrip: Q·(Qᴴ·b) = b through FactorOf in every precision,
// and a wrongly sized b is rejected.
func TestApplyQRoundTrip(t *testing.T) {
	t.Run("d", func(t *testing.T) {
		applyQRoundTrip[float64](t, 40, 24, 5, 11, Options{TileSize: 8, InnerBlock: 3}, tol)
	})
	t.Run("z", func(t *testing.T) {
		applyQRoundTrip[complex128](t, 32, 16, 3, 7, Options{Algorithm: Fibonacci, TileSize: 8, InnerBlock: 4}, tol)
	})
	t.Run("s", func(t *testing.T) {
		applyQRoundTrip[float32](t, 40, 24, 5, 11, Options{TileSize: 8, InnerBlock: 3}, tol32)
	})
	t.Run("c", func(t *testing.T) {
		applyQRoundTrip[complex64](t, 32, 16, 3, 7, Options{Algorithm: Fibonacci, TileSize: 8, InnerBlock: 4}, tol32)
	})
}

func applyQRoundTrip[T Scalar](t *testing.T, m, n, nrhs int, seed int64, opt Options, tol float64) {
	f, err := FactorOf(RandomMat[T](m, n, seed), opt)
	if err != nil {
		t.Fatal(err)
	}
	b0 := RandomMat[T](m, nrhs, seed+1)
	b := b0.Clone()
	if err := f.ApplyQH(b); err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyQ(b); err != nil {
		t.Fatal(err)
	}
	if d := maxDiffG(b, b0); d > tol {
		t.Fatalf("Q·Qᴴ·b differs from b by %g", d)
	}
	if err := f.ApplyQH(NewMat[T](7, 1)); err == nil {
		t.Error("ApplyQH accepted a wrongly sized b")
	}
}

// TestApplyQTIsApplyQH: on a real factorization the transpose and the
// conjugate transpose are the same replay, bit for bit.
func TestApplyQTIsApplyQH(t *testing.T) {
	f, err := FactorOf(RandomDense(40, 24, 11), Options{TileSize: 8, InnerBlock: 3})
	if err != nil {
		t.Fatal(err)
	}
	bt, bh := RandomDense(40, 5, 12), RandomDense(40, 5, 12)
	if err := f.ApplyQT(bt); err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyQH(bh); err != nil {
		t.Fatal(err)
	}
	for i := range bt.Data {
		if bt.Data[i] != bh.Data[i] {
			t.Fatalf("ApplyQT and ApplyQH differ at element %d: %v vs %v", i, bt.Data[i], bh.Data[i])
		}
	}
}

// TestApplyQTComputesR: Qᵀ·A must reproduce [R; 0].
func TestApplyQTComputesR(t *testing.T) {
	a := RandomDense(33, 17, 13)
	f, err := Factor(a, Options{Algorithm: BinaryTree, TileSize: 8, InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	qta := a.Clone()
	if err := f.ApplyQT(qta); err != nil {
		t.Fatal(err)
	}
	r := f.R()
	for i := 0; i < 33; i++ {
		for j := 0; j < 17; j++ {
			want := 0.0
			if i < r.Rows && j >= i {
				want = r.At(i, j)
			}
			if math.Abs(qta.At(i, j)-want) > tol {
				t.Fatalf("QᵀA(%d,%d) = %g, want %g", i, j, qta.At(i, j), want)
			}
		}
	}
}

func TestThinQ(t *testing.T) {
	a := RandomDense(40, 12, 17)
	f, err := Factor(a, Options{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	qt := f.ThinQ()
	if qt.Rows != 40 || qt.Cols != 12 {
		t.Fatalf("ThinQ dims %dx%d, want 40x12", qt.Rows, qt.Cols)
	}
	if o := OrthoResidual(qt); o > tol {
		t.Errorf("ThinQ orthogonality %g", o)
	}
	if res := QRResidual(a, qt, f.R()); res > tol {
		t.Errorf("thin QR residual %g", res)
	}
}

func TestSolveLS(t *testing.T) {
	// Plant an exact solution on a consistent system.
	m, n := 60, 10
	a := RandomDense(m, n, 21)
	xTrue := RandomDense(n, 2, 22)
	b := Mul(a, xTrue)
	f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(x.At(i, j)-xTrue.At(i, j)) > 1e-9 {
				t.Fatalf("x(%d,%d) = %g, want %g", i, j, x.At(i, j), xTrue.At(i, j))
			}
		}
	}
	// Inconsistent system: the residual must be orthogonal to range(A).
	b2 := RandomDense(m, 1, 23)
	x2, err := f.SolveLS(b2)
	if err != nil {
		t.Fatal(err)
	}
	res := Mul(a, x2)
	for i := 0; i < m; i++ {
		res.Set(i, 0, b2.At(i, 0)-res.At(i, 0))
	}
	atr := Mul(Transpose(a), res)
	if norm := FrobeniusNorm(atr); norm > 1e-9 {
		t.Errorf("‖Aᵀ(b−Ax)‖ = %g, normal equations violated", norm)
	}
}

func TestFactorErrors(t *testing.T) {
	if _, err := Factor(nil, Options{}); err == nil {
		t.Error("Factor(nil) succeeded")
	}
	if _, err := Factor(NewDense(4, 4), Options{Algorithm: PlasmaTree}); err == nil {
		t.Error("PlasmaTree without BS succeeded")
	}
	f, err := Factor(NewDense(6, 3), Options{TileSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveLS(NewDense(5, 1)); err == nil {
		t.Error("SolveLS accepted wrong-sized b")
	}
	// Rank-deficient matrix must be reported by SolveLS.
	if _, err := f.SolveLS(NewDense(6, 1)); err == nil {
		t.Error("SolveLS accepted a singular R (zero matrix)")
	}
}

func TestTraceValidates(t *testing.T) {
	a := RandomDense(40, 24, 31)
	f, err := Factor(a, Options{TileSize: 8, Workers: 4, Trace: true, InnerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := f.Trace()
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if len(tr.Spans) != f.TaskCount() {
		t.Fatalf("trace has %d spans, want %d", len(tr.Spans), f.TaskCount())
	}
	if err := tr.Validate(f.e.DAG()); err != nil {
		t.Errorf("trace violates dependencies: %v", err)
	}
}

func TestGridAccessor(t *testing.T) {
	f, err := Factor(RandomDense(40, 24, 1), Options{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	p, q, nb := f.Grid()
	if p != 5 || q != 3 || nb != 8 {
		t.Errorf("Grid() = %d,%d,%d; want 5,3,8", p, q, nb)
	}
	if f.TaskCount() <= 0 {
		t.Error("TaskCount not positive")
	}
}

func TestFactorHadriTree(t *testing.T) {
	for _, bs := range []int{2, 4} {
		for _, kern := range []Kernels{TT, TS} {
			opt := Options{Algorithm: HadriTree, BS: bs, Kernels: kern, TileSize: 8, InnerBlock: 4, Workers: 2}
			checkFactorization(t, 40, 16, opt)
		}
	}
	if _, err := Factor(NewDense(16, 8), Options{Algorithm: HadriTree, TileSize: 8}); err == nil {
		t.Error("HadriTree without BS accepted")
	}
}
