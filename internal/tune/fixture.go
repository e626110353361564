package tune

import (
	"slices"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// Kernel is one kernel the fixture times: the six Table 1 kinds in
// core.Kind order, then GEMM.
type Kernel uint8

const (
	// GEMM is the reference kernel of Figures 4–5: C += A·B on nb×nb
	// tiles, 2nb³ flops.
	GEMM Kernel = 6
	// NumKernels is the number of kernels the fixture times.
	NumKernels = GEMM + 1
)

func (k Kernel) String() string {
	if k == GEMM {
		return "GEMM"
	}
	return core.Kind(k).String()
}

// Weight is the kernel's cost in units of nb³/3 real flops (Table 1; GEMM
// is 6).
func (k Kernel) Weight() int {
	if k == GEMM {
		return 6
	}
	return core.Kind(k).Weight()
}

// Gflops converts seconds per call of k at nb×nb tiles into GFLOP/s,
// counting a complex flop as four real ones (the paper's Section 4
// convention).
func Gflops[T vec.Scalar](k Kernel, nb int, sec float64) float64 {
	scale := 1.0
	if vec.IsComplex[T]() {
		scale = 4
	}
	n := float64(nb)
	return scale * float64(k.Weight()) * n * n * n / 3 / sec / 1e9
}

// Fixture holds valid inputs for every Kernel at one tile shape, as np
// independent tile sets: np = 1 times in cache, and a pool larger than the
// last-level cache times out of cache. Each set keeps its inputs pristine
// and runs the timed kernel on two scratch tiles; Restore copies back
// exactly the tiles a call overwrote, so every call sees the same valid
// inputs, never a previous call's output.
type Fixture[T vec.Scalar] struct {
	nb, ib  int
	sets    []fixtureSet[T]
	t, work []T // T-factor output of the factor kernels; kernel scratch
}

// fixtureSet is one tile set. Every field but x1 and x2 is read-only once
// built.
type fixtureSet[T vec.Scalar] struct {
	a, c1, c2 []T // random full tiles
	r, tr     []T // GEQRT of a random tile: R above V, and its T factor
	r2        []T // a second GEQRT'd tile (TTQRT's bottom triangle)
	vts, tts  []T // TSQRT reflectors below r, and their T factor
	vtt, ttt  []T // TTQRT reflectors below r, and their T factor
	x1, x2    []T // the tiles the timed kernel overwrites
}

// NewFixture builds np tile sets of nb×nb tiles at inner blocking ib.
// Identical arguments build bit-identical fixtures.
func NewFixture[T vec.Scalar](nb, ib, np int) *Fixture[T] {
	f := &Fixture[T]{nb: nb, ib: ib, sets: make([]fixtureSet[T], np),
		t: make([]T, ib*nb), work: make([]T, kernel.WorkLen(nb, ib))}
	for i := range f.sets {
		seed := int64(8 * i)
		rnd := func() []T { seed++; return tile.RandDense[T](nb, nb, seed).Data }
		s := &f.sets[i]
		s.a, s.c1, s.c2 = rnd(), rnd(), rnd()
		s.r, s.tr = rnd(), make([]T, ib*nb)
		kernel.GEQRT(nb, nb, ib, s.r, nb, s.tr, nb, f.work)
		s.r2 = rnd()
		kernel.GEQRT(nb, nb, ib, s.r2, nb, f.t, nb, f.work)
		s.vts, s.tts = rnd(), make([]T, ib*nb)
		kernel.TSQRT(nb, nb, ib, slices.Clone(s.r), nb, s.vts, nb, s.tts, nb, f.work)
		s.vtt, s.ttt = slices.Clone(s.r2), make([]T, ib*nb)
		kernel.TTQRT(nb, nb, ib, slices.Clone(s.r), nb, s.vtt, nb, s.ttt, nb, f.work)
		s.x1, s.x2 = make([]T, nb*nb), make([]T, nb*nb)
	}
	return f
}

// sources returns the pristine tiles k reads into the scratch tiles x1 and
// x2 (nil when k overwrites only one tile).
func (s *fixtureSet[T]) sources(k Kernel) (x1, x2 []T) {
	switch k {
	case Kernel(core.KGEQRT):
		return s.a, nil
	case Kernel(core.KUNMQR):
		return s.c1, nil
	case Kernel(core.KTSQRT):
		return s.r, s.a
	case Kernel(core.KTTQRT):
		return s.r, s.r2
	case GEMM:
		return s.c2, nil
	}
	return s.c1, s.c2 // TSMQR, TTMQR
}

// Restore copies into set i's scratch tiles the inputs kernel k reads from
// them. It must run before the first Call(k, i) after another kernel ran on
// set i, and after every Call(k, i) that is to be followed by another.
func (f *Fixture[T]) Restore(k Kernel, i int) {
	s := &f.sets[i]
	x1, x2 := s.sources(k)
	copy(s.x1, x1)
	if x2 != nil {
		copy(s.x2, x2)
	}
}

// Call runs kernel k once on set i.
func (f *Fixture[T]) Call(k Kernel, i int) {
	s, nb, ib := &f.sets[i], f.nb, f.ib
	switch k {
	case Kernel(core.KGEQRT):
		kernel.GEQRT(nb, nb, ib, s.x1, nb, f.t, nb, f.work)
	case Kernel(core.KUNMQR):
		kernel.UNMQR(true, nb, nb, ib, s.r, nb, s.tr, nb, s.x1, nb, nb, f.work)
	case Kernel(core.KTSQRT):
		kernel.TSQRT(nb, nb, ib, s.x1, nb, s.x2, nb, f.t, nb, f.work)
	case Kernel(core.KTSMQR):
		kernel.TSMQR(true, nb, nb, ib, s.vts, nb, s.tts, nb, s.x1, nb, s.x2, nb, nb, f.work)
	case Kernel(core.KTTQRT):
		kernel.TTQRT(nb, nb, ib, s.x1, nb, s.x2, nb, f.t, nb, f.work)
	case Kernel(core.KTTMQR):
		kernel.TTMQR(true, nb, nb, ib, s.vtt, nb, s.ttt, nb, s.x1, nb, s.x2, nb, nb, f.work)
	case GEMM:
		kernel.GEMM(nb, nb, nb, s.a, nb, s.c1, nb, s.x1, nb, f.work)
	}
}

// Median returns the median seconds of one call of k, cycling over the
// tile sets and restoring each set after its call, untimed. Restoring
// after a call rather than before the next keeps an out-of-cache pool
// cold. Sampling runs for window and at least max(minCalls, np) calls.
func (f *Fixture[T]) Median(k Kernel, window time.Duration, minCalls int) float64 {
	for i := range f.sets {
		f.Restore(k, i)
	}
	i := 0
	return Sample(window, max(minCalls, len(f.sets)),
		func() { f.Call(k, i) },
		func() { f.Restore(k, i); i = (i + 1) % len(f.sets) })
}

// maxSamples caps the calls Sample times, bounding its memory for calls
// far shorter than the window.
const maxSamples = 1 << 16

// Sample returns the median seconds of one call of call, timing each call
// alone after one untimed warm-up call. after, when non-nil, runs untimed
// after every call. Sampling stops once window has passed and at least
// minCalls calls were timed, or after maxSamples calls.
func Sample(window time.Duration, minCalls int, call, after func()) float64 {
	if after == nil {
		after = func() {}
	}
	call()
	after()
	var secs []float64
	start := time.Now()
	for len(secs) < maxSamples && (len(secs) < max(minCalls, 1) || time.Since(start) < window) {
		t0 := time.Now()
		call()
		secs = append(secs, time.Since(t0).Seconds())
		after()
	}
	slices.Sort(secs)
	n := len(secs)
	return (secs[(n-1)/2] + secs[n/2]) / 2
}
