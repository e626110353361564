// Package work holds the triangular back-substitution shared by the
// factorization engine, the streaming subsystem and the distributed
// coordinator, generic over all four arithmetic domains.
package work

import (
	"fmt"

	"tiledqr/internal/vec"
)

// SolveUpper solves R·X = B by row-oriented back-substitution: R is n×n
// upper triangular with row stride ldr (its strictly lower part is never
// read), B provides the top n rows of the right-hand sides at stride ldb,
// and the solution is written to x at stride ldx. xcol is an n-element
// scratch holding each solution column contiguously so every inner product
// runs over a contiguous row of R via the unconjugated vec.Dot.
func SolveUpper[T vec.Scalar](n, nrhs int, r []T, ldr int, b []T, ldb int,
	x []T, ldx int, xcol []T) error {
	return SolveUpperRows(n, nrhs, func(i int, xcol []T) (T, T) {
		row := r[i*ldr : i*ldr+n]
		return row[i], vec.Dot(row[i+1:], xcol[i+1:n])
	}, b, ldb, x, ldx, xcol)
}

// SolveUpperRows is SolveUpper for an R reached through rowDot, which
// returns R(i,i) and Σ_{j>i} R(i,j)·xcol[j] — the form of an R that is not
// one contiguous array, such as the tiles of a factorization.
func SolveUpperRows[T vec.Scalar](n, nrhs int, rowDot func(i int, xcol []T) (diag, dot T),
	b []T, ldb int, x []T, ldx int, xcol []T) error {
	for c := 0; c < nrhs; c++ {
		for i := n - 1; i >= 0; i-- {
			d, dot := rowDot(i, xcol)
			s := b[i*ldb+c] - dot
			if d == 0 {
				return fmt.Errorf("tiledqr: SolveLS: R(%d,%d) = 0, matrix is rank deficient", i, i)
			}
			xcol[i] = s / d
		}
		for i := 0; i < n; i++ {
			x[i*ldx+c] = xcol[i]
		}
	}
	return nil
}
