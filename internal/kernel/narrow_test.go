package kernel

import (
	"fmt"
	"testing"
	"unsafe"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// wideCols is the C width of the reference application: at least
// vec.GemmMinCols, so it runs the wide appliers (and their packed bulk
// path where the backend takes it).
const wideCols = 8

// epsOf is the unit roundoff of T's real component type.
func epsOf[T vec.Scalar]() float64 {
	var z T
	if unsafe.Sizeof(z) == 4 || unsafe.Sizeof(z) == 8 && vec.IsComplex[T]() {
		return 0x1p-24
	}
	return 0x1p-53
}

// applyFn applies one kernel's Q or Qᴴ to nc columns of the shared
// m×wideCols right-hand side starting at column j0.
type applyFn[T vec.Scalar] func(trans bool, c1, c2 *tile.Dense[T], j0, nc int)

// checkNarrowAgrees applies a kernel to all wideCols columns at once, then
// to the same columns in groups of nc ∈ {1, 2, 3} (the narrow appliers),
// and requires the results to agree within 20·k·ε·‖C‖ in both directions.
// c1 is nil for UNMQR.
func checkNarrowAgrees[T vec.Scalar](t *testing.T, name string, k int, c1, c2 *tile.Dense[T], apply applyFn[T]) {
	t.Helper()
	norm := tile.FrobNorm(c2)
	if c1 != nil {
		norm += tile.FrobNorm(c1)
	}
	bound := 20 * float64(k) * epsOf[T]() * norm
	clone := func(d *tile.Dense[T]) *tile.Dense[T] {
		if d == nil {
			return nil
		}
		return d.Clone()
	}
	for _, trans := range []bool{true, false} {
		w1, w2 := clone(c1), clone(c2)
		apply(trans, w1, w2, 0, wideCols)
		for nc := 1; nc < vec.GemmMinCols; nc++ {
			n1, n2 := clone(c1), clone(c2)
			for j0 := 0; j0 < wideCols; j0 += nc {
				apply(trans, n1, n2, j0, min(nc, wideCols-j0))
			}
			d := tile.MaxAbsDiff(n2, w2)
			if c1 != nil {
				d = max(d, tile.MaxAbsDiff(n1, w1))
			}
			if !(d <= bound) {
				t.Errorf("%s trans=%v nc=%d: narrow differs from wide by %g (bound %g)", name, trans, nc, d, bound)
			}
		}
		if tile.MaxAbsDiff(w2, c2) == 0 {
			t.Errorf("%s trans=%v: kernel left C unchanged", name, trans)
		}
	}
}

// narrowAgreement covers UNMQR on ragged GEQRT panels and TPMQRT on the TS
// (l = 0), TT (l = min(m,k)) and general pentagonal shapes, with m not a
// multiple of ib and k below ib among the cases.
func narrowAgreement[T vec.Scalar](t *testing.T) {
	for _, s := range []struct{ m, k, ib int }{{13, 5, 4}, {19, 7, 3}, {10, 3, 8}, {9, 9, 4}, {2, 1, 1}} {
		v := tile.RandDense[T](s.m, s.k, int64(s.m*31+s.k))
		tf := make([]T, min(s.ib, s.k)*s.k)
		GEQRT(s.m, s.k, s.ib, v.Data, v.Stride, tf, s.k, nil)
		work := make([]T, ApplyWorkLen(s.m, s.ib, wideCols))
		checkNarrowAgrees(t, fmt.Sprintf("UNMQR m=%d k=%d ib=%d", s.m, s.k, s.ib), s.k,
			nil, tile.RandDense[T](s.m, wideCols, 5),
			func(trans bool, _, c2 *tile.Dense[T], j0, nc int) {
				UNMQR(trans, s.m, s.k, s.ib, v.Data, v.Stride, tf, s.k, c2.Data[j0:], c2.Stride, nc, work)
			})
	}
	for _, s := range []struct {
		kind        string
		m, k, l, ib int
	}{
		{"TSMQR", 11, 6, 0, 4}, {"TSMQR", 7, 5, 0, 8},
		{"TTMQR", 11, 6, 6, 4}, {"TTMQR", 6, 6, 6, 4}, {"TTMQR", 4, 7, 4, 3},
		{"TPMQRT", 11, 6, 3, 4}, {"TPMQRT", 9, 7, 5, 3}, {"TPMQRT", 5, 7, 2, 8},
	} {
		_, v, tf := tpFactor(t, s.m, s.k, s.l, s.ib, randUpperTri[T](s.k, 3), randPent[T](s.m, s.k, s.l, 4))
		// Outside the pentagon the tile holds unrelated data in a real
		// factorization (a TTQRT victim keeps its GEQRT reflectors there):
		// poison it so a read past the structure shows.
		for j := 0; j < s.k; j++ {
			for i := pentRows(s.m, s.l, j); i < s.m; i++ {
				v.Set(i, j, 1e6)
			}
		}
		work := make([]T, ApplyWorkLen(s.m, s.ib, wideCols))
		checkNarrowAgrees(t, fmt.Sprintf("%s m=%d k=%d l=%d ib=%d", s.kind, s.m, s.k, s.l, s.ib), s.k,
			tile.RandDense[T](s.k, wideCols, 6), tile.RandDense[T](s.m, wideCols, 7),
			func(trans bool, c1, c2 *tile.Dense[T], j0, nc int) {
				TPMQRT(trans, s.m, s.k, s.l, s.ib, v.Data, v.Stride, tf, s.k,
					c1.Data[j0:], c1.Stride, c2.Data[j0:], c2.Stride, nc, work)
			})
	}
}

// TestNarrowAppliersMatchWide pins the narrow (nc < vec.GemmMinCols)
// row-oriented appliers to the wide ones in every domain.
func TestNarrowAppliersMatchWide(t *testing.T) {
	t.Run("float64", narrowAgreement[float64])
	t.Run("float32", narrowAgreement[float32])
	t.Run("complex128", narrowAgreement[complex128])
	t.Run("complex64", narrowAgreement[complex64])
}
