package tiledqr

import (
	"context"
	"errors"
	"fmt"

	"tiledqr/internal/engine"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// engineConfig validates the (defaulted) options against the matrix shape
// and lowers them, with the per-call context, to the engine's configuration.
func engineConfig(ctx context.Context, m, n int, opt Options) (engine.Config, error) {
	g := tile.NewGrid(m, n, opt.TileSize)
	if err := opt.validate(g.P); err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Algorithm:   opt.Algorithm.core(),
		Kernels:     opt.Kernels.core(),
		CoreOpts:    opt.coreOptions(),
		TileSize:    opt.TileSize,
		InnerBlock:  opt.InnerBlock,
		Env:         opt.execEnv(),
		Trace:       opt.Trace,
		Ctx:         ctx,
		CheckHealth: opt.CheckHealth,
	}, nil
}

// factorEngine resolves AlgorithmAuto, applies defaults, validates, and
// runs the generic engine — the single code path behind FactorOf and every
// per-precision constructor that forwards to it.
func factorEngine[T vec.Scalar](ctx context.Context, a *tile.Dense[T], opt Options) (*engine.Factorization[T], error) {
	if a == nil || a.Rows < 1 || a.Cols < 1 {
		return nil, fmt.Errorf("tiledqr: cannot factor an empty matrix")
	}
	opt, err := resolveAuto[T](a.Rows, a.Cols, opt)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(ctx, a.Rows, a.Cols, opt)
	if err != nil {
		return nil, err
	}
	return engine.Factor(a, cfg)
}

// factorEngineInto is the reuse-path sibling of factorEngine: it factors a
// into an existing engine factorization, reusing its storage when shape
// and structural options match.
func factorEngineInto[T vec.Scalar](ctx context.Context, f *engine.Factorization[T], a *tile.Dense[T], opt Options) error {
	if a == nil || a.Rows < 1 || a.Cols < 1 {
		return fmt.Errorf("tiledqr: cannot factor an empty matrix")
	}
	opt, err := resolveAuto[T](a.Rows, a.Cols, opt)
	if err != nil {
		return err
	}
	cfg, err := engineConfig(ctx, a.Rows, a.Cols, opt)
	if err != nil {
		return err
	}
	return engine.FactorInto(f, a, cfg)
}

// QR is the result of a tiled QR factorization A = Q·R in the scalar
// domain T: the factored tiles (R plus the Householder representation of
// Q) and everything needed to apply Q. The named types Factorization
// (float64), Factorization32 (float32), ZFactorization (complex128) and
// CFactorization (complex64) are aliases of its four instantiations.
//
// A zero QR is the valid target of FactorIntoOf; every other method on a
// never-factored value reports an "empty factorization" error — returned
// where the method has an error result, as the panic value where it has
// none.
type QR[T Scalar] struct {
	e *engine.Factorization[T]
}

// FactorOf computes the tiled QR factorization A = Q·R of an m×n matrix
// (any m, n ≥ 1) in the scalar domain T. A is not modified.
func FactorOf[T Scalar](a *Mat[T], opt Options) (*QR[T], error) {
	return FactorOfCtx(nil, a, opt)
}

// FactorOfCtx is FactorOf under a cancellation context: when ctx is
// cancelled, in-flight kernel tasks finish, queued tasks are dropped, and
// the call returns ctx.Err(). Other factorizations sharing the runtime are
// unaffected. A nil ctx behaves exactly like FactorOf.
func FactorOfCtx[T Scalar](ctx context.Context, a *Mat[T], opt Options) (*QR[T], error) {
	e, err := factorEngine(ctx, (*tile.Dense[T])(a), opt)
	if err != nil {
		return nil, err
	}
	return &QR[T]{e: e}, nil
}

// FactorIntoOf factors a into f, reusing f's tile storage, T factors, task
// DAG and execution plan when a's shape and the structural options
// (algorithm, kernels, tile/inner-block sizes, tree parameters) match f's
// previous factorization — the zero-allocation serving path for fleets of
// same-shaped problems. A mismatch rebuilds storage transparently. f may
// be a zero &QR[T]{}. On error, any previous factorization held by f is
// gone (its storage was overwritten): f refuses to serve results until a
// subsequent FactorIntoOf/Refactor succeeds.
func FactorIntoOf[T Scalar](f *QR[T], a *Mat[T], opt Options) error {
	return FactorIntoOfCtx(nil, f, a, opt)
}

// FactorIntoOfCtx is FactorIntoOf under a cancellation context (see
// FactorOfCtx). A cancelled execution leaves f invalid — accessors return
// or panic with the cancellation cause — until a later FactorIntoOf or
// Refactor succeeds.
func FactorIntoOfCtx[T Scalar](ctx context.Context, f *QR[T], a *Mat[T], opt Options) error {
	if f.e == nil {
		f.e = new(engine.Factorization[T])
	}
	return factorEngineInto(ctx, f.e, (*tile.Dense[T])(a), opt)
}

// errEmptyFactorization is what every method of a never-factored QR
// reports; the reuse paths start with FactorOf or FactorIntoOf.
var errEmptyFactorization = errors.New("tiledqr: empty factorization (never factored; use Factor or FactorInto first)")

// eng is the zero-value guard every method goes through: it returns f's
// engine state, or errEmptyFactorization when f was never factored.
func (f *QR[T]) eng() (*engine.Factorization[T], error) {
	if f.e == nil {
		return nil, errEmptyFactorization
	}
	return f.e, nil
}

// must is eng for the value accessors, which have no error result: they
// panic with errEmptyFactorization rather than dereference nil.
func (f *QR[T]) must() *engine.Factorization[T] {
	e, err := f.eng()
	if err != nil {
		panic(err)
	}
	return e
}

// Refactor re-runs the factorization over new matrix data with the same
// options, reusing every internal buffer when a has the previous shape.
// Steady-state Refactor allocates O(1). After a failed or cancelled
// execution, a successful Refactor rebuilds storage and clears the sticky
// failure state.
func (f *QR[T]) Refactor(a *Mat[T]) error {
	return f.RefactorCtx(nil, a)
}

// RefactorCtx is Refactor under a cancellation context (see FactorOfCtx);
// ctx applies to this call only and is never retained.
func (f *QR[T]) RefactorCtx(ctx context.Context, a *Mat[T]) error {
	e, err := f.eng()
	if err != nil {
		return err
	}
	return e.RefactorCtx(ctx, (*tile.Dense[T])(a))
}

// Err returns the cause of the last failed or cancelled factorization
// attempt, nil while the factorization is valid.
func (f *QR[T]) Err() error {
	e, err := f.eng()
	if err != nil {
		return err
	}
	return e.Err()
}

// R returns the min(m,n)×n upper triangular (trapezoidal) factor.
func (f *QR[T]) R() *Mat[T] { return (*Mat[T])(f.must().R()) }

// ApplyQH overwrites b (m×nrhs) with Qᴴ·b — the conjugate transpose, which
// for real T is the plain transpose Qᵀ — by replaying the factorization's
// transformations in execution order.
func (f *QR[T]) ApplyQH(b *Mat[T]) error { return f.apply(nil, b, true) }

// ApplyQHCtx is ApplyQH under a cancellation context; on cancellation b is
// partially transformed and must be discarded.
func (f *QR[T]) ApplyQHCtx(ctx context.Context, b *Mat[T]) error { return f.apply(ctx, b, true) }

// ApplyQT is ApplyQH under the name of the real domains' transpose.
func (f *QR[T]) ApplyQT(b *Mat[T]) error { return f.ApplyQH(b) }

// ApplyQTCtx is ApplyQHCtx under the name of the real domains' transpose.
func (f *QR[T]) ApplyQTCtx(ctx context.Context, b *Mat[T]) error { return f.ApplyQHCtx(ctx, b) }

// ApplyQ overwrites b (m×nrhs) with Q·b.
func (f *QR[T]) ApplyQ(b *Mat[T]) error { return f.apply(nil, b, false) }

// ApplyQCtx is ApplyQ under a cancellation context; on cancellation b is
// partially transformed and must be discarded.
func (f *QR[T]) ApplyQCtx(ctx context.Context, b *Mat[T]) error { return f.apply(ctx, b, false) }

func (f *QR[T]) apply(ctx context.Context, b *Mat[T], trans bool) error {
	e, err := f.eng()
	if err != nil {
		return err
	}
	return e.Apply(ctx, (*tile.Dense[T])(b), trans)
}

// Q returns the full m×m orthogonal (unitary) factor, built by applying Q
// to the identity; O(m³) work — prefer ThinQ or ApplyQ for large m.
func (f *QR[T]) Q() *Mat[T] { return (*Mat[T])(f.must().Q()) }

// ThinQ returns the first min(m,n) columns of Q (the orthonormal basis of
// A's column span when A has full column rank).
func (f *QR[T]) ThinQ() *Mat[T] { return (*Mat[T])(f.must().ThinQ()) }

// SolveLS solves the least-squares problem min‖A·x − b‖₂ for each column of
// b (m×nrhs), returning the n×nrhs solution. Requires m ≥ n and a
// nonsingular R.
func (f *QR[T]) SolveLS(b *Mat[T]) (*Mat[T], error) {
	return f.SolveLSCtx(nil, b)
}

// SolveLSCtx is SolveLS under a cancellation context (see FactorOfCtx).
func (f *QR[T]) SolveLSCtx(ctx context.Context, b *Mat[T]) (*Mat[T], error) {
	e, err := f.eng()
	if err != nil {
		return nil, err
	}
	x, err := e.SolveLS(ctx, (*tile.Dense[T])(b))
	if err != nil {
		return nil, err
	}
	return (*Mat[T])(x), nil
}

// Trace returns the execution trace (nil unless Options.Trace was set).
func (f *QR[T]) Trace() *sched.Trace { return f.must().Trace() }

// GanttChart renders an ASCII Gantt chart of the traced execution (one row
// per worker, `width` time columns). Requires Options.Trace.
func (f *QR[T]) GanttChart(width int) string { return f.must().GanttChart(width) }

// Utilization returns per-worker busy fractions and overall parallel
// efficiency of the traced execution. Requires Options.Trace.
func (f *QR[T]) Utilization() sched.Utilization { return f.must().Utilization() }

// TaskCount returns the number of kernel tasks the factorization executed.
func (f *QR[T]) TaskCount() int { return f.must().TaskCount() }

// Grid returns the tile grid dimensions (p×q) and tile size.
func (f *QR[T]) Grid() (p, q, nb int) { return f.must().Grid() }
