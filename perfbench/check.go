package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"tiledqr"
)

// Result checks. They are written against the matrices alone, with plain
// loops, so they share no code with the factorization they judge. Every
// bound has the form c·n·ε·scale; the constants c are generous (an observed
// correct result sits orders of magnitude below them) while a wrong result
// misses them by many orders.
const (
	// cLS bounds the least-squares optimality residual ‖Aᴴ(b−Ax)‖.
	cLS = 4
	// cQR bounds ‖A−QR‖/‖A‖ and ‖QᴴQ−I‖ of a full check.
	cQR = 10
	// cStreamR bounds a stream's R against a one-shot R of the same rows;
	// hyperbolic downdating loses more accuracy than a plain QR.
	cStreamR = 1000
)

type scalar interface{ float64 | complex128 }

// eps is the machine epsilon of both scalar types, which are double precision.
const eps = 0x1p-52

func conj[T scalar](v T) T {
	if c, ok := any(v).(complex128); ok {
		return any(cmplx.Conj(c)).(T)
	}
	return v
}

func abs2[T scalar](v T) float64 {
	if c, ok := any(v).(complex128); ok {
		return real(c)*real(c) + imag(c)*imag(c)
	}
	f := any(v).(float64)
	return f * f
}

func abs[T scalar](v T) float64 { return math.Sqrt(abs2(v)) }

// frob returns the Frobenius norm of a.
func frob[T scalar](a *tiledqr.Mat[T]) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for _, v := range a.Data[i*a.Stride : i*a.Stride+a.Cols] {
			s += abs2(v)
		}
	}
	return math.Sqrt(s)
}

// rowBlock is a horizontal slice of a least-squares system: the rows of A
// and of the right-hand side b (one column). A stream's retained window is
// a list of such blocks.
type rowBlock[T scalar] struct {
	a, b *tiledqr.Mat[T]
}

// shape reports a matrix whose dimensions differ from r×c, so that a
// malformed result fails its check instead of panicking inside it.
func shape[T scalar](what string, m *tiledqr.Mat[T], r, c int) error {
	if m == nil {
		return fmt.Errorf("%s is missing", what)
	}
	if m.Rows != r || m.Cols != c {
		return fmt.Errorf("%s is %d×%d, want %d×%d", what, m.Rows, m.Cols, r, c)
	}
	return nil
}

// checkLS verifies that x (n×1) is a backward-stable least-squares solution
// of the system stacked from blocks: ‖Aᴴ(b−Ax)‖ ≤ cLS·n·ε·‖A‖·(‖A‖‖x‖+‖b‖),
// with Frobenius norms. anorm is ‖A‖_F; the cost is O(mn).
func checkLS[T scalar](blocks []rowBlock[T], anorm float64, x *tiledqr.Mat[T]) error {
	n := blocks[0].a.Cols
	if err := shape("solution", x, n, 1); err != nil {
		return err
	}
	g := make([]T, n) // Aᴴ(b − Ax)
	var bnorm2 float64
	for _, blk := range blocks {
		a := blk.a
		for i := 0; i < a.Rows; i++ {
			row := a.Data[i*a.Stride : i*a.Stride+n]
			bi := blk.b.Data[i*blk.b.Stride]
			bnorm2 += abs2(bi)
			r := bi
			for j, v := range row {
				r -= v * x.Data[j*x.Stride]
			}
			for j, v := range row {
				g[j] += conj(v) * r
			}
		}
	}
	var gnorm2, xnorm2 float64
	for j := 0; j < n; j++ {
		gnorm2 += abs2(g[j])
		xnorm2 += abs2(x.Data[j*x.Stride])
	}
	gnorm := math.Sqrt(gnorm2)
	bound := cLS * float64(n) * eps * anorm * (anorm*math.Sqrt(xnorm2) + math.Sqrt(bnorm2))
	if !(gnorm <= bound) { // also rejects NaN
		return fmt.Errorf("least-squares residual ‖Aᴴ(b−Ax)‖ = %.3g exceeds %.3g", gnorm, bound)
	}
	return nil
}

// checkQR is the full check of a one-shot factorization: ‖A−QR‖/‖A‖ and
// ‖QᴴQ−I‖ (Frobenius) must both stay within cQR·n·ε. q is the thin m×n Q
// and r the n×n triangle. The cost is O(mn²).
func checkQR[T scalar](a, q, r *tiledqr.Mat[T]) error {
	m, n := a.Rows, a.Cols
	if err := shape("Q", q, m, n); err != nil {
		return err
	}
	if err := shape("R", r, n, n); err != nil {
		return err
	}
	bound := cQR * float64(n) * eps
	// A − QR, row by row; R is upper triangular.
	var d2 float64
	row := make([]T, n)
	for i := 0; i < m; i++ {
		copy(row, a.Data[i*a.Stride:i*a.Stride+n])
		qi := q.Data[i*q.Stride : i*q.Stride+n]
		for k, qik := range qi {
			rk := r.Data[k*r.Stride : k*r.Stride+n]
			for j := k; j < n; j++ {
				row[j] -= qik * rk[j]
			}
		}
		for _, v := range row {
			d2 += abs2(v)
		}
	}
	if res := math.Sqrt(d2) / frob(a); !(res <= bound) {
		return fmt.Errorf("‖A−QR‖/‖A‖ = %.3g exceeds %.3g", res, bound)
	}
	// QᴴQ − I, accumulated as a full n×n Gram matrix.
	gram := make([]T, n*n)
	for i := 0; i < m; i++ {
		qi := q.Data[i*q.Stride : i*q.Stride+n]
		for k, qik := range qi {
			c := conj(qik)
			gk := gram[k*n : k*n+n]
			for j, v := range qi {
				gk[j] += c * v
			}
		}
	}
	var o2 float64
	for k := 0; k < n; k++ {
		gram[k*n+k] -= 1
		for _, v := range gram[k*n : k*n+n] {
			o2 += abs2(v)
		}
	}
	if res := math.Sqrt(o2); !(res <= bound) {
		return fmt.Errorf("‖QᴴQ−I‖ = %.3g exceeds %.3g", res, bound)
	}
	return nil
}

// checkSameR compares two n×n triangles of the same rows, up to the phase
// of each row (QR fixes R only up to a unitary diagonal): after scaling
// every row to a real non-negative diagonal, ‖R−Rref‖/‖Rref‖ must stay
// within cStreamR·n·ε.
func checkSameR[T scalar](r, ref *tiledqr.Mat[T]) error {
	n := ref.Cols
	if err := shape("R", r, n, n); err != nil {
		return err
	}
	var d2, ref2 float64
	for i := 0; i < n; i++ {
		ri := r.Data[i*r.Stride : i*r.Stride+n]
		fi := ref.Data[i*ref.Stride : i*ref.Stride+n]
		pr, pf := phase(ri[i]), phase(fi[i])
		for j := i; j < n; j++ {
			d2 += abs2(conj(pr)*ri[j] - conj(pf)*fi[j])
			ref2 += abs2(fi[j])
		}
	}
	bound := cStreamR * float64(n) * eps
	if res := math.Sqrt(d2 / ref2); !(res <= bound) {
		return fmt.Errorf("stream R differs from a one-shot R of the window by %.3g (bound %.3g)", res, bound)
	}
	return nil
}

// phase returns v/|v| (1 for v = 0).
func phase[T scalar](v T) T {
	a := abs(v)
	if a == 0 {
		return T(1)
	}
	if c, ok := any(v).(complex128); ok {
		return any(c / complex(a, 0)).(T)
	}
	return any(any(v).(float64) / a).(T)
}

// checkGram verifies a triangle R returned without its Q (a served factor
// reply) against A with a probe vector: QR = A with Q orthonormal implies
// ‖Rv‖ = ‖Av‖, so |‖Av‖−‖Rv‖| must stay within cQR·n·ε·‖A‖‖v‖. One probe
// costs O(mn) and misses a wrong R only with probability zero.
func checkGram[T scalar](a *tiledqr.Mat[T], anorm float64, r *tiledqr.Mat[T], v []T) error {
	n := a.Cols
	if err := shape("R", r, n, n); err != nil {
		return err
	}
	norm := func(m *tiledqr.Mat[T]) float64 {
		var s float64
		for i := 0; i < m.Rows; i++ {
			var acc T
			for j, x := range m.Data[i*m.Stride : i*m.Stride+n] {
				acc += x * v[j]
			}
			s += abs2(acc)
		}
		return math.Sqrt(s)
	}
	var v2 float64
	for _, x := range v {
		v2 += abs2(x)
	}
	diff := math.Abs(norm(a) - norm(r))
	bound := cQR * float64(n) * eps * anorm * math.Sqrt(v2)
	if !(diff <= bound) {
		return fmt.Errorf("|‖Av‖−‖Rv‖| = %.3g exceeds %.3g", diff, bound)
	}
	return nil
}

// checkGramFull is the full check of a triangle returned without its Q:
// ‖AᴴA − RᴴR‖ ≤ cQR·n·ε·‖A‖² (Frobenius), in O(mn²).
func checkGramFull[T scalar](a, r *tiledqr.Mat[T]) error {
	n := a.Cols
	if err := shape("R", r, n, n); err != nil {
		return err
	}
	g := make([]T, n*n)
	gram := func(m *tiledqr.Mat[T], sign T) {
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*m.Stride : i*m.Stride+n]
			for k, v := range row {
				c := sign * conj(v)
				gk := g[k*n : k*n+n]
				for j, w := range row {
					gk[j] += c * w
				}
			}
		}
	}
	gram(a, 1)
	gram(r, -1)
	var d2 float64
	for _, v := range g {
		d2 += abs2(v)
	}
	an := frob(a)
	bound := cQR * float64(n) * eps * an * an
	if res := math.Sqrt(d2); !(res <= bound) {
		return fmt.Errorf("‖AᴴA−RᴴR‖ = %.3g exceeds %.3g", res, bound)
	}
	return nil
}
