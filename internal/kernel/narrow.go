package kernel

import "tiledqr/internal/vec"

// The narrow regime of the panel appliers: C has fewer columns than the
// micro-GEMM register width (vec.GemmMinCols), the shape of a least-squares
// right-hand side. The wide loops hold W = Vᴴ·C row-major (kb×nc) and make
// one Axpy per (C row, reflector) pair — a call of length nc, which at
// nc = 1 is pure call overhead. Here W is held transposed instead: column
// j of W is the contiguous kb-vector w[j*kb:(j+1)*kb], so each C row costs
// one Axpy (accumulating W) and one Dot (updating C) per column, both over
// the contiguous reflector row of V.
//
// The complex domains accumulate conj(W) = Vᵀ·conj(C), which needs no
// conjugated copy of V, and conjugate it exactly once inside triMulCols.

// applyPanelNarrow is applyPanel for nc < vec.GemmMinCols; the arguments
// are applyPanel's (w needs kb·nc elements, no pack scratch).
func applyPanelNarrow[T vec.Scalar](trans bool, m int, v []T, ldv, r0, vc0, kb int,
	t []T, ldt, tc0 int, c []T, ldc, cc0, nc int, w []T) {
	cc := vec.IsComplex[T]()
	w = w[:kb*nc]
	clear(w)
	// conj(W) = Vᵀ·conj(C): row i holds reflector columns x < d = i − r0
	// in V and the unit diagonal of reflector d.
	for i := r0; i < m; i++ {
		d := i - r0
		vrow := v[i*ldv+vc0 : i*ldv+vc0+min(d, kb)]
		for j, cij := range c[i*ldc+cc0 : i*ldc+cc0+nc] {
			wj := w[j*kb : j*kb+kb]
			cij = conjIf(cc, cij)
			if d < kb {
				wj[d] += cij
			}
			vec.Axpy(cij, vrow, wj)
		}
	}
	triMulCols(trans, kb, t, ldt, tc0, w, nc)
	// C −= V·W, one dot per C element.
	for i := r0; i < m; i++ {
		d := i - r0
		vrow := v[i*ldv+vc0 : i*ldv+vc0+min(d, kb)]
		ci := c[i*ldc+cc0 : i*ldc+cc0+nc]
		for j := range ci {
			wj := w[j*kb : j*kb+kb]
			s := vec.Dot(vrow, wj)
			if d < kb {
				s += wj[d]
			}
			ci[j] -= s
		}
	}
}

// applyPentPanelNarrow is applyPentPanel for nc < vec.GemmMinCols; the
// arguments are applyPentPanel's (w needs kb·nc elements, no pack
// scratch). Row i of C2 meets the reflector columns x ≥ xs, where xs is
// the first column whose pentagonal height exceeds i.
func applyPentPanelNarrow[T vec.Scalar](trans bool, m, l int, v []T, ldv, vc0, kb int,
	t []T, ldt int,
	c1 []T, ldc1, c1c0 int,
	c2 []T, ldc2, c2c0, nc int, w []T) {
	cc := vec.IsComplex[T]()
	w = w[:kb*nc]
	// conj(W) = conj(C1[vc0+x]) + V₂ᵀ·conj(C2): the identity tops seed it.
	for x := 0; x < kb; x++ {
		top := (vc0+x)*ldc1 + c1c0
		for j, cv := range c1[top : top+nc] {
			w[j*kb+x] = conjIf(cc, cv)
		}
	}
	pmax := pentRows(m, l, vc0+kb-1)
	for i := 0; i < pmax; i++ {
		xs := max(0, i-(m-l)-vc0)
		vrow := v[i*ldv+vc0+xs : i*ldv+vc0+kb]
		for j, cij := range c2[i*ldc2+c2c0 : i*ldc2+c2c0+nc] {
			vec.Axpy(conjIf(cc, cij), vrow, w[j*kb+xs:j*kb+kb])
		}
	}
	triMulCols(trans, kb, t, ldt, vc0, w, nc)
	// C1 −= W ; C2 −= V₂·W.
	for x := 0; x < kb; x++ {
		top := (vc0+x)*ldc1 + c1c0
		row := c1[top : top+nc]
		for j := range row {
			row[j] -= w[j*kb+x]
		}
	}
	for i := 0; i < pmax; i++ {
		xs := max(0, i-(m-l)-vc0)
		vrow := v[i*ldv+vc0+xs : i*ldv+vc0+kb]
		ci := c2[i*ldc2+c2c0 : i*ldc2+c2c0+nc]
		for j := range ci {
			ci[j] -= vec.Dot(vrow, w[j*kb+xs:j*kb+kb])
		}
	}
}

// triMulCols is triMulW for the transposed workspace of the narrow
// appliers: w holds conj(W) as nc contiguous kb-columns on entry and
// Tᴴ·W (trans) or T·W on return, T being the upper triangular block in
// columns tc0:tc0+kb of t. Each product walks contiguous rows of T: Tᴴ·W
// is formed as conj(Tᴴ·W) = Tᵀ·conj(W), one Axpy of row r per step with r
// swept downward (the steps before r write only w[r+1:], so step r reads
// the input w[r]), and T·W as one Dot per row with x swept upward (the
// rows before x write only w[:x], so row x reads the input w[x:]). The
// conjugation back to W happens once, between the two forms.
func triMulCols[T vec.Scalar](trans bool, kb int, t []T, ldt, tc0 int, w []T, nc int) {
	if trans {
		for j := 0; j < nc; j++ {
			wj := w[j*kb : j*kb+kb]
			for r := kb - 1; r >= 0; r-- {
				trow := t[r*ldt+tc0+r : r*ldt+tc0+kb]
				s := wj[r]
				wj[r] = s * trow[0]
				vec.Axpy(s, trow[1:], wj[r+1:])
			}
		}
	}
	if vec.IsComplex[T]() {
		for i, x := range w {
			w[i] = vec.Conj(x)
		}
	}
	if !trans {
		for j := 0; j < nc; j++ {
			wj := w[j*kb : j*kb+kb]
			for x := 0; x < kb; x++ {
				wj[x] = vec.Dot(t[x*ldt+tc0+x:x*ldt+tc0+kb], wj[x:])
			}
		}
	}
}
