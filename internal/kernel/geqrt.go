package kernel

import (
	"math"
	"unsafe"

	"tiledqr/internal/vec"
)

// larfgCol generates an elementary Householder reflector H = I − τ·v·vᴴ with
// v[r0] = 1 acting on the column vector [a(r0,c); a(r0+1:m,c)] so that
// Hᴴ·x = [β; 0] with β real. On return a(r0,c) = β; the tail a(r0+1:m,c)
// still holds the RAW column — the caller multiplies it by the returned
// scale (fused into its next row sweep) to obtain v[r0+1:]. scale is 1 when
// τ = 0. For the real domains the conjugation degenerates and this is
// exactly LAPACK's dlarfg; for the complex domains τ is complex and β is
// forced real, as in zlarfg.
//
// The tail norm uses the safe single-pass Nrm2 — one Sqrt per reflector
// instead of one Hypot (or Hypot+Abs) per element — and the final α/xnorm
// combination keeps one Hypot for its overflow safety. The β/τ arithmetic
// runs in float64 for every domain, so the single-precision types only
// round once at the end.
func larfgCol[T vec.Scalar](a []T, lda, r0, c, m int) (tau, scale T) {
	alpha := a[r0*lda+c]
	n := m - r0 - 1
	var xnorm float64
	if n > 0 {
		xnorm = vec.Nrm2Inc(a[(r0+1)*lda+c:], n, lda)
	}
	if xnorm == 0 && vec.ImagPart(alpha) == 0 {
		return 0, 1
	}
	beta := -math.Copysign(math.Hypot(vec.Abs(alpha), xnorm), vec.RealPart(alpha))
	tau = vec.FromParts[T]((beta-vec.RealPart(alpha))/beta, -vec.ImagPart(alpha)/beta)
	betaT := vec.FromParts[T](beta, 0)
	a[r0*lda+c] = betaT
	return tau, 1 / (alpha - betaT)
}

// geqrt2 factors the panel A[j0:m, j0:j0+kb] in place by Householder
// reflections and stores the panel's kb×kb triangular factor in columns
// j0:j0+kb of t (which has row stride ldt and at least kb rows). comb must
// have length ≥ kb.
//
// Each reflector makes two row-contiguous sweeps over the panel instead of
// the column-strided loops of the unblocked reference: the first sweep
// accumulates every dot product the reflector needs into comb (positions
// below jj feed the T column, positions above jj feed the trailing update),
// the second applies the update. Row slices keep the accesses sequential in
// memory, which column walks at stride lda are not. comb[c] accumulates
// Σ_{i>j} conj(v_i)·a(i, j0+c): the Vᴴ·A dot the update columns need
// directly, and the conjugate of the T-column dot for c < jj.
func geqrt2[T vec.Scalar](m int, a []T, lda, j0, kb int, t []T, ldt int, comb []T) {
	cc := vec.IsComplex[T]()
	for jj := 0; jj < kb; jj++ {
		j := j0 + jj
		tau, scale := larfgCol(a, lda, j, j, m)
		ctau := vec.Conj(tau)
		cb := comb[:kb]
		clear(cb)
		// Sweep 1: scale the raw reflector column in passing (larfgCol
		// defers it) and accumulate the conjugated dots. comb[jj] gathers
		// Σ|v|² and is never read.
		for i := j + 1; i < m; i++ {
			row := a[i*lda+j0 : i*lda+j0+kb]
			vi := row[jj] * scale
			row[jj] = vi
			vec.Axpy(conjIf(cc, vi), row, cb)
		}
		// Apply Hᴴ to the remaining panel columns: finish the update scalars
		// w = conj(τ)·(row j + comb) in place, apply them to row j, then
		// sweep 2 applies them to the rows below.
		if jj+1 < kb {
			w := cb[jj+1:]
			arow := a[j*lda+j+1 : j*lda+j0+kb]
			for y, av := range arow {
				wv := ctau * (av + w[y])
				arow[y] = av - wv
				w[y] = wv
			}
			for i := j + 1; i < m; i++ {
				vec.Axpy(-a[i*lda+j], w, a[i*lda+j+1:i*lda+j0+kb])
			}
		}
		// T(0:jj, jj) = −τ·T(0:jj, 0:jj)·(V(:, 0:jj)ᴴ·v_j). The conjugated
		// dot tails are already in comb; add the row-j terms (v_c's row j
		// times v_j[j] = 1) and conjugate (identity in the real domains).
		for c := 0; c < jj; c++ {
			cb[c] = conjIf(cc, a[j*lda+j0+c]+cb[c])
		}
		for r := 0; r < jj; r++ {
			t[r*ldt+j] = -tau * vec.Dot(t[r*ldt+j0+r:r*ldt+j0+jj], cb[r:jj])
		}
		t[jj*ldt+j] = tau
	}
}

// applyPanel applies the block reflector of a GEQRT panel to C.
// The panel's reflectors are the unit-lower-trapezoidal columns
// v[r0:m, vc0:vc0+kb] of the array v; the block triangular factor is in
// columns tc0:tc0+kb of t. If trans is true it applies (I − V·Tᴴ·Vᴴ)
// (i.e. Qᴴ; Qᵀ in the real domains), otherwise I − V·T·Vᴴ. Only rows r0:m
// of C[, cc0:cc0+nc] are touched. w must have length ≥ kb·nc; pack is
// micro-GEMM scratch and may be empty (the packed bulk path then stays
// off).
//
// Rows r0+kb:m sit below the unit-lower-triangular head of the panel, so
// every reflector column has a full V entry there: over that region both
// sweeps are plain matrix products, handed to the packed micro-GEMM when
// it will take them. The triangular head keeps the scalar sweeps — the
// diagonal copy/Sub and the ragged column starts don't map onto GEMM.
// A C narrower than the micro-GEMM register width goes to the
// row-oriented applyPanelNarrow instead.
func applyPanel[T vec.Scalar](trans bool, m int, v []T, ldv, r0, vc0, kb int,
	t []T, ldt, tc0 int, c []T, ldc, cc0, nc int, w, pack []T) {
	if nc < vec.GemmMinCols {
		applyPanelNarrow(trans, m, v, ldv, r0, vc0, kb, t, ldt, tc0, c, ldc, cc0, nc, w)
		return
	}
	xBlock := xBlockOf[T]()
	cc := vec.IsComplex[T]()
	mb := r0 + kb // first bulk row
	bulk := m - mb
	gemmBulk := bulk > 0 && vec.GemmOK[T](kb, nc, bulk, len(pack)) &&
		vec.GemmOK[T](bulk, nc, kb, len(pack))
	mEnd := m
	if gemmBulk {
		mEnd = mb
	}
	// W = Vᴴ · C, swept in blocks of xBlock reflector columns: each block's
	// W rows stay cache-resident while C's rows stream through, so the C
	// tile is read ⌈kb/xBlock⌉ times instead of kb times. The head rows
	// also seed every W row (the copy at the reflector diagonal), so this
	// sweep must precede the bulk product, which accumulates.
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		for i := r0 + xb; i < mEnd; i++ {
			ci := c[i*ldc+cc0 : i*ldc+cc0+nc]
			d := i - r0 // reflector columns x < d accumulate row i
			nx := min(d, xe)
			if d < xe {
				copy(w[d*nc:d*nc+nc], ci) // diagonal row of reflector d: v = 1
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+nx]
			for x := xb; x < nx; x++ {
				vec.Axpy(conjIf(cc, vrow[x]), ci, w[x*nc:x*nc+nc])
			}
		}
	}
	if gemmBulk {
		// W += V₂ᵀ·C₂ over the full rows in one packed product (real
		// domains only, so the conjugation is the identity).
		vec.GemmTN(kb, nc, bulk, T(1), v[mb*ldv+vc0:], ldv,
			c[mb*ldc+cc0:], ldc, w[:kb*nc], nc, pack)
	}
	triMulW(trans, kb, t, ldt, tc0, w, nc)
	// C −= V · W, same blocking, consuming W rows in pairs per C row.
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		for i := r0 + xb; i < mEnd; i++ {
			ci := c[i*ldc+cc0 : i*ldc+cc0+nc]
			d := i - r0
			nx := min(d, xe)
			if d < xe {
				vec.Sub(w[d*nc:d*nc+nc], ci)
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+nx]
			x := xb
			for ; x+1 < nx; x += 2 {
				vec.Axpy2(-vrow[x], w[x*nc:x*nc+nc], -vrow[x+1], w[(x+1)*nc:(x+1)*nc+nc], ci)
			}
			if x < nx {
				vec.Axpy(-vrow[x], w[x*nc:x*nc+nc], ci)
			}
		}
	}
	if gemmBulk {
		// C₂ −= V₂·W. The packed path copies V out before writing C, so
		// V and C aliasing the same tile (GEQRT's trailing update) is safe.
		vec.GemmNN(bulk, nc, kb, T(-1), v[mb*ldv+vc0:], ldv,
			w[:kb*nc], nc, c[mb*ldc+cc0:], ldc, pack)
	}
}

// conjIf returns Conj(v) when cc is set and v unchanged otherwise. cc is
// vec.IsComplex[T]() computed once per kernel call: in gcshape-generic code
// a bare vec.Conj compiles to a dictionary type switch, which costs real
// time when paid per reflector column inside the hot sweeps; hoisting the
// domain test to one branch keeps the real instantiations free of it.
func conjIf[T vec.Scalar](cc bool, v T) T {
	if cc {
		return vec.Conj(v)
	}
	return v
}

// xBlockOf is the reflector-column blocking of the panel appliers: xBlock
// rows of the W workspace stay L1-resident alongside the streaming C row.
// The budget is held in bytes (128·sizeof(T) per W row at nb columns), so
// every domain blocks to the same cache footprint: 16 columns for float64,
// 8 for complex128, 32/16 for the single-precision pair.
func xBlockOf[T vec.Scalar]() int {
	var z T
	return 128 / int(unsafe.Sizeof(z))
}

// triMulW overwrites the kb×nc workspace W with Tᴴ·W (trans) or T·W, where T
// is the upper triangular block in columns tc0:tc0+kb of t. The diagonal
// scale is fused with the first off-diagonal accumulation via AddScaled.
func triMulW[T vec.Scalar](trans bool, kb int, t []T, ldt, tc0 int, w []T, nc int) {
	if trans {
		cc := vec.IsComplex[T]()
		// New W[x] depends on old W[0..x]; sweep x downward.
		for x := kb - 1; x >= 0; x-- {
			wx := w[x*nc : x*nc+nc]
			txx := conjIf(cc, t[x*ldt+tc0+x])
			if x == 0 {
				vec.Scal(txx, wx)
				continue
			}
			vec.AddScaled(txx, conjIf(cc, t[tc0+x]), w[:nc], wx)
			for r := 1; r < x; r++ {
				vec.Axpy(conjIf(cc, t[r*ldt+tc0+x]), w[r*nc:r*nc+nc], wx)
			}
		}
	} else {
		// New W[x] depends on old W[x..kb-1]; sweep x upward.
		for x := 0; x < kb; x++ {
			wx := w[x*nc : x*nc+nc]
			txx := t[x*ldt+tc0+x]
			if x == kb-1 {
				vec.Scal(txx, wx)
				continue
			}
			vec.AddScaled(txx, t[x*ldt+tc0+x+1], w[(x+1)*nc:(x+1)*nc+nc], wx)
			for r := x + 2; r < kb; r++ {
				vec.Axpy(t[x*ldt+tc0+r], w[r*nc:r*nc+nc], wx)
			}
		}
	}
}

// GEQRT computes the blocked QR factorization of the m×n tile a (row stride
// lda): A = Q·R with Q = H₁···H_k, k = min(m,n). On return the upper
// triangle/trapezoid of a holds R, the strictly lower part holds the
// Householder vectors V, and t (ib rows, row stride ldt ≥ n) holds the
// ib×ib triangular T factors of each column panel. work may be nil or a
// scratch slice of length ≥ WorkLen(n, ib).
func GEQRT[T vec.Scalar](m, n, ib int, a []T, lda int, t []T, ldt int, work []T) {
	k := min(m, n)
	if k == 0 {
		return
	}
	ib = clampIB(ib, k)
	work = ensureWork(work, WorkLen(n, ib))
	comb, w, pack := work[:ib], work[ib:ib+ib*n], work[ib+ib*n:]
	for k0 := 0; k0 < k; k0 += ib {
		kb := min(ib, k-k0)
		geqrt2(m, a, lda, k0, kb, t, ldt, comb)
		if k0+kb < n {
			applyPanel(true, m, a, lda, k0, k0, kb, t, ldt, k0, a, lda, k0+kb, n-k0-kb, w, pack)
		}
	}
}

// UNMQR applies the orthogonal (unitary) factor of a GEQRT factorization to
// the m×nc tile c: C := Qᴴ·C if trans, else C := Q·C. v and t are the
// outputs of GEQRT on an m×· tile with k reflectors and inner block size
// ib. work may be nil or a scratch slice of length ≥ ib·nc; length ≥
// ApplyWorkLen(m, ib, nc) additionally enables the packed bulk path.
func UNMQR[T vec.Scalar](trans bool, m, k, ib int, v []T, ldv int, t []T, ldt int,
	c []T, ldc, nc int, work []T) {
	if k == 0 || nc == 0 {
		return
	}
	ib = clampIB(ib, k)
	work = ensureWork(work, ib*nc)
	w, pack := work[:ib*nc], work[ib*nc:]
	if trans {
		for k0 := 0; k0 < k; k0 += ib {
			kb := min(ib, k-k0)
			applyPanel(true, m, v, ldv, k0, k0, kb, t, ldt, k0, c, ldc, 0, nc, w, pack)
		}
	} else {
		start := ((k - 1) / ib) * ib
		for k0 := start; k0 >= 0; k0 -= ib {
			kb := min(ib, k-k0)
			applyPanel(false, m, v, ldv, k0, k0, kb, t, ldt, k0, c, ldc, 0, nc, w, pack)
		}
	}
}

// WorkLen returns the scratch length the tile kernels need for square-ish
// tiles of at most n rows and columns at inner block size ib: one
// ib-vector of fused dot accumulators, the ib×n block-reflector workspace,
// and packed micro-GEMM scratch covering every product the factor and
// update kernels form on such tiles (including the full n×n×n GEMM task).
// Kernels handed less scratch than this still run — a short pack region
// only disables the packed bulk path.
func WorkLen(n, ib int) int {
	return ib*(n+1) + vec.GemmPackBound(n, n, n)
}

// ApplyWorkLen returns the scratch length the Q-application kernels
// (UNMQR, TPMQRT and their wrappers) need to take the packed bulk path
// when applying a factorization with inner block ib to a C tile of at most
// m rows and nc columns. Any length ≥ ib·nc is accepted; the extra
// headroom here feeds the micro-GEMM pack buffers.
func ApplyWorkLen(m, ib, nc int) int {
	return ib*nc + max(vec.GemmPackBound(ib, nc, m), vec.GemmPackBound(m, nc, ib))
}

// clampIB normalizes the inner blocking factor to 1 ≤ ib ≤ k.
func clampIB(ib, k int) int {
	if ib <= 0 || ib > k {
		return k
	}
	return ib
}

// ensureWork returns work if it is large enough, otherwise a fresh slice.
func ensureWork[T vec.Scalar](work []T, n int) []T {
	if len(work) < n {
		return make([]T, n)
	}
	return work
}
