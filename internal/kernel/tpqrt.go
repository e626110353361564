package kernel

import (
	"math"

	"tiledqr/internal/vec"
)

// pentRows returns the number of rows of the pentagonal block B that
// participate in reflector j (0-based), for an m×n B with trapezoid height l:
// column j of B has m−l+min(l, j+1) structurally nonzero leading rows.
// l = 0 gives the TS ("square") case, l = min(m,n) the TT ("triangle") case.
func pentRows(m, l, j int) int {
	return m - l + min(l, j+1)
}

// larfgPent generates the reflector for TPQRT column j: the vector is
// [a(j,j); b(0:p, j)] where p = pentRows(m, l, j). On return a(j,j) = β
// (real); b(0:p, j) still holds the raw column — the caller multiplies it by
// the returned scale (fused into its next row sweep) to obtain v₂. The tail
// norm is the safe single-pass Nrm2 (one Sqrt per reflector instead of one
// Hypot per element), and the β/τ arithmetic runs in float64 for every
// domain as in larfgCol.
func larfgPent[T vec.Scalar](a []T, lda int, b []T, ldb, j, p int) (tau, scale T) {
	alpha := a[j*lda+j]
	var xnorm float64
	if p > 0 {
		xnorm = vec.Nrm2Inc(b[j:], p, ldb)
	}
	if xnorm == 0 && vec.ImagPart(alpha) == 0 {
		return 0, 1
	}
	beta := -math.Copysign(math.Hypot(vec.Abs(alpha), xnorm), vec.RealPart(alpha))
	tau = vec.FromParts[T]((beta-vec.RealPart(alpha))/beta, -vec.ImagPart(alpha)/beta)
	betaT := vec.FromParts[T](beta, 0)
	a[j*lda+j] = betaT
	return tau, 1 / (alpha - betaT)
}

// tpqrt2 factors one panel (columns j0:j0+kb) of the stacked matrix
// [A; B] where A is n×n upper triangular and B is m×n pentagonal with
// trapezoid height l. comb must have length ≥ kb.
//
// As in geqrt2, each reflector is applied with row-contiguous sweeps over B.
// The only pentagonal subtlety is in the T-column dot products: column
// j0+c of B has pentRows(m, l, j0+c) structural rows, so row i contributes
// to comb[c] only when that height exceeds i — a per-row start offset,
// since pentRows is nondecreasing in the column index. The update columns
// (c > jj) always take all p rows, and start never exceeds jj, so one Axpy
// per row covers both. comb[c] accumulates Σ conj(v_i)·b(i, j0+c): the
// Vᴴ·B dot for update columns, the conjugate of the T-column dot for c < jj.
func tpqrt2[T vec.Scalar](m, n, l int, a []T, lda int, b []T, ldb, j0, kb int,
	t []T, ldt int, comb []T) {
	cc := vec.IsComplex[T]()
	for jj := 0; jj < kb; jj++ {
		j := j0 + jj
		p := pentRows(m, l, j)
		tau, scale := larfgPent(a, lda, b, ldb, j, p)
		ctau := vec.Conj(tau)
		cb := comb[:kb]
		clear(cb)
		// Sweep 1: scale the raw reflector column in passing and accumulate
		// the conjugated dots over each column's structural rows. The top
		// parts of the reflectors are distinct identity columns, so A
		// contributes nothing here.
		for i := 0; i < p; i++ {
			start := 0
			if d := i - (m - l) - j0; d > 0 {
				start = d
			}
			row := b[i*ldb+j0 : i*ldb+j0+kb]
			vi := row[jj] * scale
			row[jj] = vi
			vec.Axpy(conjIf(cc, vi), row[start:], cb[start:])
		}
		// Apply Hᴴ to the remaining panel columns: update scalars
		// w = conj(τ)·(A row j + comb), applied to A's row j and then to all
		// p rows of B.
		if jj+1 < kb {
			w := cb[jj+1:]
			arow := a[j*lda+j+1 : j*lda+j0+kb]
			for y, av := range arow {
				wv := ctau * (av + w[y])
				arow[y] = av - wv
				w[y] = wv
			}
			for i := 0; i < p; i++ {
				vec.Axpy(-b[i*ldb+j], w, b[i*ldb+j+1:i*ldb+j0+kb])
			}
		}
		// T(0:jj, jj) = −τ·T(0:jj, 0:jj)·(V₂(:, 0:jj)ᴴ·v₂ⱼ); the conjugated
		// dots are already in comb (no top-part terms), so conjugate back
		// (identity in the real domains).
		for c := 0; c < jj; c++ {
			cb[c] = conjIf(cc, cb[c])
		}
		for r := 0; r < jj; r++ {
			t[r*ldt+j] = -tau * vec.Dot(t[r*ldt+j0+r:r*ldt+j0+jj], cb[r:jj])
		}
		t[jj*ldt+j] = tau
	}
}

// applyPentPanel applies the block reflector of a TPQRT panel (columns
// vc0:vc0+kb of the pentagonal array v, with T in columns vc0:vc0+kb of t)
// to the stacked pair [C1; C2]. The identity part of reflector column vc0+x
// acts on row vc0+x of C1; the pentagonal part acts on C2. If trans it
// applies (I − V·Tᴴ·Vᴴ), else I − V·T·Vᴴ. w must have length ≥ kb·nc;
// pack is micro-GEMM scratch and may be empty (the packed bulk path then
// stays off).
//
// Rows 0:mFull of C2, where mFull = pentRows(m, l, vc0), lie inside the
// pentagonal part of every reflector column (pentRows is nondecreasing in
// the column index, so its minimum over the panel is at vc0): both sweeps
// over that region are plain matrix products, handed to the packed
// micro-GEMM when it will take them. With l = 0 (the TSMQR shape, the
// hottest update kernel) that region is all of C2. A C narrower than the
// micro-GEMM register width goes to the row-oriented applyPentPanelNarrow
// instead.
func applyPentPanel[T vec.Scalar](trans bool, m, l int, v []T, ldv, vc0, kb int,
	t []T, ldt int,
	c1 []T, ldc1, c1c0 int,
	c2 []T, ldc2, c2c0, nc int, w, pack []T) {
	if nc < vec.GemmMinCols {
		applyPentPanelNarrow(trans, m, l, v, ldv, vc0, kb, t, ldt, c1, ldc1, c1c0, c2, ldc2, c2c0, nc, w)
		return
	}
	xBlock := xBlockOf[T]()
	cc := vec.IsComplex[T]()
	mFull := pentRows(m, l, vc0)
	gemmBulk := vec.GemmOK[T](kb, nc, mFull, len(pack)) &&
		vec.GemmOK[T](mFull, nc, kb, len(pack))
	iStart := 0
	if gemmBulk {
		iStart = mFull
	}
	// W = C1[vc0+x] + V₂ᴴ · C2. The C1 rows seed W (the identity tops of
	// the reflectors); then one sweep over C2's structural rows accumulates
	// the pentagonal parts — row i of C2 is read once and feeds the
	// reflector columns whose pentagonal height exceeds i (a suffix
	// x ≥ xmin, since pentRows is nondecreasing in the column index).
	for x := 0; x < kb; x++ {
		top := (vc0 + x) * ldc1
		copy(w[x*nc:x*nc+nc], c1[top+c1c0:top+c1c0+nc])
	}
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		pmaxB := pentRows(m, l, vc0+xe-1)
		for i := iStart; i < pmaxB; i++ {
			ci := c2[i*ldc2+c2c0 : i*ldc2+c2c0+nc]
			xs := xb
			if d := i - (m - l) - vc0; d > xs {
				xs = d
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+xe]
			for x := xs; x < xe; x++ {
				vec.Axpy(conjIf(cc, vrow[x]), ci, w[x*nc:x*nc+nc])
			}
		}
	}
	if gemmBulk {
		// W += V₂ᵀ·C₂ over the fully pentagonal rows in one packed product
		// (real domains only, so the conjugation is the identity).
		vec.GemmTN(kb, nc, mFull, T(1), v[vc0:], ldv,
			c2[c2c0:], ldc2, w[:kb*nc], nc, pack)
	}
	triMulW(trans, kb, t, ldt, vc0, w, nc)
	// C1 −= W ; C2 −= V₂·W, same blocking, consuming W rows in pairs per
	// C2 row.
	for x := 0; x < kb; x++ {
		top := (vc0 + x) * ldc1
		vec.Sub(w[x*nc:x*nc+nc], c1[top+c1c0:top+c1c0+nc])
	}
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		pmaxB := pentRows(m, l, vc0+xe-1)
		for i := iStart; i < pmaxB; i++ {
			ci := c2[i*ldc2+c2c0 : i*ldc2+c2c0+nc]
			xs := xb
			if d := i - (m - l) - vc0; d > xs {
				xs = d
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+xe]
			x := xs
			for ; x+1 < xe; x += 2 {
				vec.Axpy2(-vrow[x], w[x*nc:x*nc+nc], -vrow[x+1], w[(x+1)*nc:(x+1)*nc+nc], ci)
			}
			if x < xe {
				vec.Axpy(-vrow[x], w[x*nc:x*nc+nc], ci)
			}
		}
	}
	if gemmBulk {
		vec.GemmNN(mFull, nc, kb, T(-1), v[vc0:], ldv,
			w[:kb*nc], nc, c2[c2c0:], ldc2, pack)
	}
}

// TPQRT computes the blocked QR factorization of the stacked matrix [A; B]
// where A is the n×n upper triangular R of the pivot tile (its strictly
// lower part is NOT referenced — it may hold the pivot's own Householder
// vectors) and B is an m×n pentagonal tile with trapezoid height l:
//
//	l = 0        — TSQRT: B is a full square/rectangular tile
//	l = min(m,n) — TTQRT: B is upper triangular/trapezoidal (the R of the
//	               tile being zeroed); entries of B outside the trapezoid
//	               are not referenced
//
// On return A holds the updated R, B holds the V₂ parts of the reflectors,
// and t (ib rows, stride ldt ≥ n) holds the panel T factors. work may be
// nil or a scratch slice of length ≥ WorkLen(n, ib).
func TPQRT[T vec.Scalar](m, n, l, ib int, a []T, lda int, b []T, ldb int,
	t []T, ldt int, work []T) {
	if n == 0 || m == 0 {
		return
	}
	if l < 0 || l > min(m, n) {
		panic("kernel: TPQRT requires 0 ≤ l ≤ min(m,n)")
	}
	ib = clampIB(ib, n)
	work = ensureWork(work, WorkLen(n, ib))
	comb, w, pack := work[:ib], work[ib:ib+ib*n], work[ib+ib*n:]
	for k0 := 0; k0 < n; k0 += ib {
		kb := min(ib, n-k0)
		tpqrt2(m, n, l, a, lda, b, ldb, k0, kb, t, ldt, comb)
		if k0+kb < n {
			// Trailing update inside [A; B]: C1 is A's rows k0:k0+kb,
			// columns k0+kb:n; C2 is B's columns k0+kb:n.
			applyPentPanel(true, m, l, b, ldb, k0, kb, t, ldt,
				a, lda, k0+kb, b, ldb, k0+kb, n-k0-kb, w, pack)
		}
	}
}

// TSQRT is TPQRT with l = 0: zero a full m×n tile b using the n×n triangle a
// on top of it (Algorithm 2 of the paper, "triangle on top of square").
func TSQRT[T vec.Scalar](m, n, ib int, a []T, lda int, b []T, ldb int,
	t []T, ldt int, work []T) {
	TPQRT(m, n, 0, ib, a, lda, b, ldb, t, ldt, work)
}

// TTQRT is TPQRT with l = min(m,n): zero the triangular/trapezoidal tile b
// using the triangle a on top of it (Algorithm 3, "triangle on top of
// triangle"). Its pentagonal structure is what makes it cost 2 weight units
// instead of TSQRT's 6.
func TTQRT[T vec.Scalar](m, n, ib int, a []T, lda int, b []T, ldb int,
	t []T, ldt int, work []T) {
	TPQRT(m, n, min(m, n), ib, a, lda, b, ldb, t, ldt, work)
}

// TPMQRT applies the transformation computed by TPQRT to the stacked pair
// [C1; C2]: rows 0:k of the tile c1 and the full m×nc tile c2. v (m×k
// pentagonal, trapezoid height l) and t are TPQRT's outputs; trans selects
// Qᴴ (as used during factorization) versus Q. work may be nil or a scratch
// slice of length ≥ ib·nc; length ≥ ApplyWorkLen(m, ib, nc) additionally
// enables the packed bulk path.
func TPMQRT[T vec.Scalar](trans bool, m, k, l, ib int, v []T, ldv int, t []T, ldt int,
	c1 []T, ldc1 int, c2 []T, ldc2, nc int, work []T) {
	if k == 0 || nc == 0 {
		return
	}
	ib = clampIB(ib, k)
	work = ensureWork(work, ib*nc)
	w, pack := work[:ib*nc], work[ib*nc:]
	if trans {
		for k0 := 0; k0 < k; k0 += ib {
			kb := min(ib, k-k0)
			applyPentPanel(true, m, l, v, ldv, k0, kb, t, ldt,
				c1, ldc1, 0, c2, ldc2, 0, nc, w, pack)
		}
	} else {
		start := ((k - 1) / ib) * ib
		for k0 := start; k0 >= 0; k0 -= ib {
			kb := min(ib, k-k0)
			applyPentPanel(false, m, l, v, ldv, k0, kb, t, ldt,
				c1, ldc1, 0, c2, ldc2, 0, nc, w, pack)
		}
	}
}

// TSMQR is TPMQRT with l = 0 (apply a TSQRT transformation).
func TSMQR[T vec.Scalar](trans bool, m, k, ib int, v []T, ldv int, t []T, ldt int,
	c1 []T, ldc1 int, c2 []T, ldc2, nc int, work []T) {
	TPMQRT(trans, m, k, 0, ib, v, ldv, t, ldt, c1, ldc1, c2, ldc2, nc, work)
}

// TTMQR is TPMQRT with l = min(m,k) (apply a TTQRT transformation).
func TTMQR[T vec.Scalar](trans bool, m, k, ib int, v []T, ldv int, t []T, ldt int,
	c1 []T, ldc1 int, c2 []T, ldc2, nc int, work []T) {
	TPMQRT(trans, m, k, min(m, k), ib, v, ldv, t, ldt, c1, ldc1, c2, ldc2, nc, work)
}
