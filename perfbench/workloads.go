package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tiledqr"
)

// pinned are the options every workload factors with.
func pinned() tiledqr.Options {
	return tiledqr.Options{Algorithm: tiledqr.Greedy, Kernels: tiledqr.TT, TileSize: tileNB, InnerBlock: tileIB}
}

// qrFlops is the standard flop count of a Householder QR of an m×n matrix
// (m ≥ n), four times larger in complex arithmetic.
func qrFlops[T scalar](m, n int) float64 {
	f := 2*float64(m)*float64(n)*float64(n) - 2*math.Pow(float64(n), 3)/3
	if isComplex[T]() {
		f *= 4
	}
	return f
}

func isComplex[T scalar]() bool {
	var z T
	_, ok := any(z).(complex128)
	return ok
}

// inputs draws every random input of a run from one seeded source, so the
// same seed gives the same inputs.
type inputs struct{ rng *rand.Rand }

func newInputs(seed int64) *inputs { return &inputs{rand.New(rand.NewSource(seed))} }

func randMat[T scalar](in *inputs, r, c int) *tiledqr.Mat[T] {
	return tiledqr.RandomMat[T](r, c, in.rng.Int63())
}

// sequence returns n indices drawn uniformly from [0, k).
func (in *inputs) sequence(n, k int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = in.rng.Intn(k)
	}
	return s
}

// lsFact is what the public factorization types of every precision offer
// for least squares and the full check.
type lsFact[T scalar] interface {
	SolveLS(b *tiledqr.Mat[T]) (*tiledqr.Mat[T], error)
	R() *tiledqr.Mat[T]
	ThinQ() *tiledqr.Mat[T]
}

// publicFactor factors through the public API: a fresh factorization per
// call, or FactorInto on a reused one. detach hands out the current
// factorization (for a full check after the timed loop) and continues on a
// spare that set-up already warmed.
type publicFactor[T scalar] struct {
	opt        tiledqr.Options
	reuse      bool
	cur, spare lsFact[T]
	last       lsFact[T]
}

func newPublicFactor[T scalar](reuse bool) *publicFactor[T] {
	p := &publicFactor[T]{opt: pinned(), reuse: reuse}
	if reuse {
		switch any(p).(type) {
		case *publicFactor[float64]:
			p.cur, p.spare = any(&tiledqr.Factorization{}).(lsFact[T]), any(&tiledqr.Factorization{}).(lsFact[T])
		default:
			p.cur, p.spare = any(&tiledqr.ZFactorization{}).(lsFact[T]), any(&tiledqr.ZFactorization{}).(lsFact[T])
		}
	}
	return p
}

func (p *publicFactor[T]) factor(a *tiledqr.Mat[T]) (lsFact[T], error) {
	var f lsFact[T]
	var err error
	switch a := any(a).(type) {
	case *tiledqr.Dense:
		if p.reuse {
			cur := any(p.cur).(*tiledqr.Factorization)
			err = tiledqr.FactorInto(cur, a, p.opt)
			f = any(cur).(lsFact[T])
		} else {
			var g *tiledqr.Factorization
			g, err = tiledqr.Factor(a, p.opt)
			f = any(g).(lsFact[T])
		}
	case *tiledqr.ZDense:
		if p.reuse {
			cur := any(p.cur).(*tiledqr.ZFactorization)
			err = tiledqr.ZFactorInto(cur, a, p.opt)
			f = any(cur).(lsFact[T])
		} else {
			var g *tiledqr.ZFactorization
			g, err = tiledqr.FactorComplex(a, p.opt)
			f = any(g).(lsFact[T])
		}
	}
	if err != nil {
		return nil, err
	}
	p.last = f
	return f, nil
}

// warmSpare runs one factorization on the spare so that detaching later
// costs the timed loop no storage rebuild.
func (p *publicFactor[T]) warmSpare(a *tiledqr.Mat[T]) error {
	if !p.reuse {
		return nil
	}
	p.cur, p.spare = p.spare, p.cur
	_, err := p.factor(a)
	p.cur, p.spare = p.spare, p.cur
	return err
}

func (p *publicFactor[T]) detach() (lsFact[T], error) {
	if p.last == nil {
		return nil, errors.New("nothing factored yet")
	}
	kept := p.last
	if p.reuse {
		if p.spare == nil {
			return nil, errors.New("a reuse path detaches once per run")
		}
		p.cur, p.spare = p.spare, nil
	}
	return kept, nil
}

// closedWorkload is a workload driven by one caller that issues its next
// operation when the previous one returns.
type closedWorkload interface {
	// op runs timed operation i.
	op(i int) error
	// check verifies op i's result in O(mn); it runs untimed.
	check(i int) error
	// keep retains op i's result for fullCheck.
	keep(i int) error
	// fullCheck runs the O(mn²) check of the kept result after the loop.
	fullCheck() error
	// rows and flops are the matrix rows and useful flops of one operation.
	rows() float64
	flops() float64
	// setTrace turns the library's own tracing on or off, where it has any.
	setTrace(on bool)
}

// factorLS is tall_ls and square_z: factor one of a few seeded matrices
// and solve a least-squares problem with one right-hand side.
type factorLS[T scalar] struct {
	m, n   int
	pf     *publicFactor[T]
	as, bs []*tiledqr.Mat[T]
	norms  []float64
	seq    []int
	x      *tiledqr.Mat[T]
	kept   lsFact[T]
	keptA  int
}

// poolSize is how many distinct matrices a closed-loop workload cycles
// through: enough that no operation sees a cache-warm copy of its input
// from the one before it more often than chance.
const poolSize = 4

func newFactorLS[T scalar](seed int64, m, n int, reuse bool) (*factorLS[T], error) {
	in := newInputs(seed)
	w := &factorLS[T]{m: m, n: n, pf: newPublicFactor[T](reuse)}
	for k := 0; k < poolSize; k++ {
		a := randMat[T](in, m, n)
		w.as = append(w.as, a)
		w.bs = append(w.bs, randMat[T](in, m, 1))
		w.norms = append(w.norms, frob(a))
	}
	w.seq = in.sequence(4096, poolSize)
	// Warm-up: one operation on each factorization the loop may use.
	if err := w.pf.warmSpare(w.as[0]); err != nil {
		return nil, err
	}
	if err := w.op(0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, w.check(0)
}

func (w *factorLS[T]) idx(i int) int { return w.seq[i%len(w.seq)] }

func (w *factorLS[T]) op(i int) error {
	k := w.idx(i)
	f, err := w.pf.factor(w.as[k])
	if err != nil {
		return err
	}
	w.x, err = f.SolveLS(w.bs[k])
	return err
}

func (w *factorLS[T]) check(i int) error {
	k := w.idx(i)
	return checkLS([]rowBlock[T]{{w.as[k], w.bs[k]}}, w.norms[k], w.x)
}

func (w *factorLS[T]) keep(i int) (err error) {
	w.keptA = w.idx(i)
	w.kept, err = w.pf.detach()
	return err
}

func (w *factorLS[T]) fullCheck() error {
	if w.kept == nil {
		return errors.New("no operation was kept for the full check")
	}
	return checkQR(w.as[w.keptA], w.kept.ThinQ(), w.kept.R())
}

func (w *factorLS[T]) rows() float64    { return float64(w.m) }
func (w *factorLS[T]) flops() float64   { return qrFlops[T](w.m, w.n) }
func (w *factorLS[T]) setTrace(on bool) { w.pf.opt.Trace = on }

// Stream workload shape: batches of streamBatch rows, a window of
// streamWindowBatches batches.
const (
	streamBatch         = 256
	streamWindowBatches = 16
	streamPool          = 32
)

// streamLS is stream_window: a sliding-window stream that appends one
// batch (evicting the oldest) and solves after every append.
type streamLS[T scalar] struct {
	n      int
	s      *tiledqr.Stream[T]
	pool   []rowBlock[T]
	norms2 []float64
	seq    []int
	window []int // pool indices of the batches in the window, oldest first
	next   int   // appends made so far
	x      *tiledqr.Mat[T]

	keptR   *tiledqr.Mat[T]
	keptWin []int
}

func newStreamLS[T scalar](seed int64, n int) (*streamLS[T], error) {
	in := newInputs(seed)
	w := &streamLS[T]{n: n}
	for k := 0; k < streamPool; k++ {
		a := randMat[T](in, streamBatch, n)
		w.pool = append(w.pool, rowBlock[T]{a, randMat[T](in, streamBatch, 1)})
		f := frob(a)
		w.norms2 = append(w.norms2, f*f)
	}
	w.seq = in.sequence(8192, streamPool)
	opt := pinned()
	opt.WindowRows = streamBatch * streamWindowBatches
	var err error
	if w.s, err = tiledqr.NewStreamOf[T](n, opt); err != nil {
		return nil, err
	}
	// Fill the window, then one full operation as the warm-up.
	for k := 0; k < streamWindowBatches; k++ {
		if err := w.appendNext(); err != nil {
			return nil, fmt.Errorf("fill window: %w", err)
		}
	}
	if err := w.op(0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, w.check(0)
}

func (w *streamLS[T]) appendNext() error {
	k := w.seq[w.next%len(w.seq)]
	w.next++
	if err := w.s.AppendRHS(w.pool[k].a, w.pool[k].b); err != nil {
		return err
	}
	w.window = append(w.window, k)
	if len(w.window) > streamWindowBatches {
		w.window = w.window[1:]
	}
	return nil
}

func (w *streamLS[T]) op(int) error {
	if err := w.appendNext(); err != nil {
		return err
	}
	var err error
	w.x, err = w.s.SolveLS()
	return err
}

func (w *streamLS[T]) windowBlocks(win []int) ([]rowBlock[T], float64) {
	blocks := make([]rowBlock[T], len(win))
	var n2 float64
	for j, k := range win {
		blocks[j] = w.pool[k]
		n2 += w.norms2[k]
	}
	return blocks, math.Sqrt(n2)
}

func (w *streamLS[T]) check(int) error {
	blocks, anorm := w.windowBlocks(w.window)
	return checkLS(blocks, anorm, w.x)
}

func (w *streamLS[T]) keep(int) (err error) {
	w.keptWin = append([]int(nil), w.window...)
	w.keptR, err = w.s.R()
	return err
}

// fullCheck compares the kept R with a one-shot factorization of the
// window the stream held at that moment.
func (w *streamLS[T]) fullCheck() error {
	if w.keptR == nil {
		return errors.New("no operation was kept for the full check")
	}
	a := tiledqr.NewMat[T](len(w.keptWin)*streamBatch, w.n)
	for j, k := range w.keptWin {
		copy(a.Data[j*streamBatch*w.n:], w.pool[k].a.Data)
	}
	f, err := newPublicFactor[T](false).factor(a)
	if err != nil {
		return fmt.Errorf("one-shot reference: %w", err)
	}
	return checkSameR(w.keptR, f.R())
}

func (w *streamLS[T]) rows() float64 { return streamBatch }

// flops counts an append of b rows onto an n×n triangle (2bn²), the
// downdate of as many rows (2bn²) and the n×n back-substitution.
func (w *streamLS[T]) flops() float64 {
	n, b := float64(w.n), float64(streamBatch)
	f := 4*b*n*n + n*n
	if isComplex[T]() {
		f *= 4
	}
	return f
}

func (w *streamLS[T]) setTrace(bool) {} // streams have no library tracing

// closedResult is what one timed closed loop measured.
type closedResult struct {
	lat       []time.Duration // per operation, failed ones included
	failedLat []bool
	attempted int
	failed    int // errored or failed its check
	badResult int // failed its check (a wrong answer, not a refusal)
	errored   int
	firstErr  error
	busy      time.Duration // Σ lat
	alloc     uint64        // heap bytes allocated inside the timed calls
	okFlops   float64
	okRows    float64
}

// runClosed drives w for d of wall time. Operation sample's result is kept
// and fully checked after the loop.
func runClosed(w closedWorkload, d time.Duration, sample int) (closedResult, error) {
	var r closedResult
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		err := w.op(i)
		lat := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		r.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		r.attempted++
		r.lat = append(r.lat, lat)
		r.busy += lat
		if err == nil {
			if err = w.check(i); err != nil {
				r.badResult++
			}
		} else {
			r.errored++
		}
		r.failedLat = append(r.failedLat, err != nil)
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("operation %d: %w", i, err)
			}
			continue
		}
		r.okFlops += w.flops()
		r.okRows += w.rows()
		if i == sample {
			if err := w.keep(i); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}
