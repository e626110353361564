// Package engine holds the one generic tiled-QR execution core shared by
// every public precision: the DAG execution loop (dispatching core tasks to
// the generic tile kernels through a Source), the Q application replay used
// by ApplyQ/ApplyQT and the streaming Qᵀb fold, one-shot factorization
// state (R extraction, thin/full Q, least squares, workspace pooling), and
// tracing. The public package instantiates Factorization at
// float32/float64/complex64/complex128 behind thin typed wrappers;
// internal/stream reuses ExecTasks/Replay for its resident-triangle merges.
//
// Execution placement goes through Env: a shared persistent sched.Runtime
// (the default — many factorizations, one worker pool), a per-call pool
// (the legacy mode, kept as the explicit-Workers path and benchmark
// baseline), or inline on the calling goroutine (Workers == 1, and DAGs too
// small to be worth a cross-goroutine hop). Kernel workspaces are owned by
// the workers themselves — one grow-only buffer per arithmetic domain in
// each worker's sched.Local — so repeated factorizations allocate no
// scratch.
package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/fault"
	"tiledqr/internal/kernel"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
	"tiledqr/internal/work"
)

// Env selects where a DAG executes.
type Env struct {
	// Runtime, when non-nil, is the shared persistent pool to execute on.
	Runtime *sched.Runtime
	// Workers is honored only when Runtime is nil: a per-call pool of that
	// size is built and torn down around the execution (0 = GOMAXPROCS);
	// Workers == 1 runs inline on the calling goroutine, deterministically.
	Workers int
}

// RunOpts carries the per-execution policies a DAG run honors: context
// cancellation, tracing, and opt-in numerical health checks. The zero
// value (no context, no trace, no checks) is the free-of-overhead happy
// path.
type RunOpts struct {
	// Ctx, when non-nil, cancels the execution: in-flight tasks finish,
	// queued tasks are dropped, and the run returns ctx.Err().
	Ctx context.Context
	// Trace enables per-task span recording.
	Trace bool
	// Check enables the poison fail-fast: every task verifies the tiles it
	// wrote are finite, so a NaN or Inf stops the DAG at the first task
	// that produces it instead of flowing downstream.
	Check bool
	// Stats, when non-nil, receives the job's execution accounting (tasks
	// run, summed kernel time, wall clock) — the compute side of the
	// distributed layer's comms-vs-compute overlap measurement.
	Stats *sched.JobStats
}

// run executes the plan's DAG under the Env's placement policy.
func (e Env) run(p *sched.Plan, opts RunOpts, exec sched.Exec) (*sched.Trace, error) {
	if e.Runtime != nil {
		return e.Runtime.Exec(p, sched.Options{Trace: opts.Trace, Ctx: opts.Ctx, Stats: opts.Stats}, exec)
	}
	if work.WorkersOrDefault(e.Workers) == 1 {
		tr, err := sched.RunInline(opts.Ctx, p.DAG(), opts.Trace, exec)
		if opts.Stats != nil {
			// Inline runs have no idle worker time: busy equals wall.
			*opts.Stats = sched.JobStats{Tasks: int64(p.DAG().NumTasks()), Busy: tr.Elapsed, Wall: tr.Elapsed}
		}
		return tr, err
	}
	rt := sched.NewRuntime(e.Workers)
	defer rt.Close()
	return rt.Exec(p, sched.Options{Trace: opts.Trace, Ctx: opts.Ctx, Stats: opts.Stats}, exec)
}

// wsSlot maps a scalar type to its sched.Local slot: one kernel workspace
// per arithmetic domain per worker.
func wsSlot[T vec.Scalar]() int {
	switch any((*T)(nil)).(type) {
	case *float32:
		return 0
	case *float64:
		return 1
	case *complex64:
		return 2
	default: // *complex128
		return 3
	}
}

// WorkerWS returns worker-local kernel scratch of length n, growing the
// worker's cached buffer when a larger factorization comes through. Only
// the owning worker touches a Local, so no synchronization is needed, and
// steady-state executions allocate nothing here.
func WorkerWS[T vec.Scalar](loc *sched.Local, n int) []T {
	s := &loc.Slots[wsSlot[T]()]
	if ws, ok := (*s).([]T); ok && cap(ws) >= n {
		return ws[:n]
	}
	ws := make([]T, n)
	*s = ws
	return ws
}

// precName maps a scalar type to its BLAS-style precision letter, the
// identity the fault injector and diagnostics use.
func precName[T vec.Scalar]() string {
	switch any((*T)(nil)).(type) {
	case *float32:
		return "s"
	case *float64:
		return "d"
	case *complex64:
		return "c"
	default: // *complex128
		return "z"
	}
}

// Config carries the resolved factorization parameters from the public
// options layer (defaults applied, values validated) down to the engine.
type Config struct {
	Algorithm  core.Algorithm
	Kernels    core.Kernels
	CoreOpts   core.Options
	TileSize   int
	InnerBlock int
	Env        Env
	Trace      bool
	// Ctx cancels the factorization's DAG execution (per call, never
	// retained by the factorization).
	Ctx context.Context
	// CheckHealth enables input validation (reject non-finite entries) and
	// the breakdown fail-fast (every task verifies its output tiles are
	// finite).
	CheckHealth bool
	// Stats, when non-nil, receives the DAG execution's accounting (tasks,
	// busy, wall) for this factorization — per call, never retained.
	Stats *sched.JobStats
}

// reuseKey is the structural identity of a factorization: FactorInto
// reuses tiles, T-factor arena, DAG and execution plan when it matches.
type reuseKey struct {
	m, n       int
	algorithm  core.Algorithm
	kernels    core.Kernels
	coreOpts   core.Options
	tileSize   int
	innerBlock int
}

// Source resolves the tile and T-factor operands of DAG tasks, all in the
// 1-based tile coordinates the task lists use. It is implemented by
// Factorization (plain grid mapping) and by the streaming core (stacked
// resident-triangle + batch mapping), so exactly one dispatch loop exists.
type Source[T vec.Scalar] interface {
	// TileAt returns tile (i, k).
	TileAt(i, k int) *tile.Dense[T]
	// TFactor returns the GEQRT T-factor storage of tile (i, k).
	TFactor(i, k int) []T
	// T2Factor returns the TSQRT/TTQRT T-factor storage of tile (i, k).
	T2Factor(i, k int) []T
	// KCols returns the column count of tile column k.
	KCols(k int) int
}

// isFinite reports whether v is free of NaN and Inf components. vec.Abs is
// overflow-safe (scaled hypot in the complex domains), so huge-but-finite
// values are not misreported.
func isFinite[T vec.Scalar](v T) bool {
	a := vec.Abs(v)
	return !math.IsNaN(a) && !math.IsInf(a, 0)
}

// CheckFinite scans a matrix for non-finite entries, returning a
// descriptive error naming the first offender — the input-validation half
// of Options.CheckHealth, shared by the one-shot and streaming paths.
func CheckFinite[T vec.Scalar](what string, a *tile.Dense[T]) error {
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		for j, v := range row {
			if !isFinite(v) {
				return fmt.Errorf("tiledqr: CheckHealth: %s contains a non-finite entry %v at (%d,%d)", what, v, i, j)
			}
		}
	}
	return nil
}

// checkTile is the breakdown fail-fast of Options.CheckHealth: a tile a
// task just wrote must be free of non-finite entries, otherwise a NaN or
// Inf would silently propagate into every downstream task. The scan is
// O(nb²) against the kernel's O(nb³) work, so the opt-in costs a few
// percent; every output tile of every task is scanned, so a finite input
// that overflows mid-factorization (entries near ±MaxFloat) is caught at
// the task that produced the overflow — not just on the R diagonal.
func checkTile[T vec.Scalar](a *tile.Dense[T], task core.Task) error {
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		for j, v := range row {
			if !isFinite(v) {
				return fmt.Errorf("tiledqr: CheckHealth: numerical breakdown: non-finite entry %v at local (%d,%d) after %v (non-finite input or overflow upstream)", v, i, j, task)
			}
		}
	}
	return nil
}

// checkTask scans every tile the task wrote (factor kernels also rewrite
// the reflector tile; appliers rewrite one or two trailing tiles). Each
// tile's final content is checked by the last task that wrote it, so a
// run whose every check passed has a fully finite factorization.
func checkTask[T vec.Scalar](src Source[T], task core.Task) error {
	switch task.Kind {
	case core.KGEQRT:
		return checkTile(src.TileAt(task.I, task.K), task)
	case core.KUNMQR:
		return checkTile(src.TileAt(task.I, task.J), task)
	case core.KTSQRT, core.KTTQRT:
		if err := checkTile(src.TileAt(task.Piv, task.K), task); err != nil {
			return err
		}
		return checkTile(src.TileAt(task.I, task.K), task)
	case core.KTSMQR, core.KTTMQR:
		if err := checkTile(src.TileAt(task.Piv, task.J), task); err != nil {
			return err
		}
		return checkTile(src.TileAt(task.I, task.J), task)
	}
	return nil
}

// injectFault consults the armed fault injector for this task. It returns
// (poison, err): err aborts the task (ModeError), poison asks the caller
// to NaN the task's output tile after the kernel runs (ModeNaN). ModePanic
// panics here — the scheduler's containment turns it into a job error —
// and ModeStall sleeps before the kernel executes.
func injectFault[T vec.Scalar](task core.Task) (bool, error) {
	act, hit := fault.Check(task.Kind, precName[T]())
	if !hit {
		return false, nil
	}
	switch act.Mode {
	case fault.ModeError:
		return false, fault.Errorf(task.Kind, precName[T]())
	case fault.ModePanic:
		panic(fault.PanicMsg(task.Kind, precName[T]()))
	case fault.ModeStall:
		time.Sleep(act.Stall)
	case fault.ModeNaN:
		return true, nil
	}
	return false, nil
}

// outTile returns the tile a task writes its primary output to: the
// factored/zeroed tile for factor kernels, the updated trailing tile for
// appliers — the target of a ModeNaN poison injection.
func outTile[T vec.Scalar](src Source[T], task core.Task) *tile.Dense[T] {
	switch task.Kind {
	case core.KUNMQR, core.KTSMQR, core.KTTMQR:
		return src.TileAt(task.I, task.J)
	default:
		return src.TileAt(task.I, task.K)
	}
}

// ExecTask dispatches one DAG task to the corresponding tile kernel.
// Unknown task kinds are reported as an error (not a panic): the DAG is
// data, and a malformed one must fail the factorization, not the process.
// check enables the per-task breakdown fail-fast of Options.CheckHealth;
// when the process-global fault injector is armed, matching tasks suffer
// their configured failure here (one atomic load when disarmed).
func ExecTask[T vec.Scalar](src Source[T], d *core.DAG, t int32, ib int, ws []T, check bool) error {
	task := d.Tasks[t]
	poison := false
	if fault.Armed() {
		var err error
		if poison, err = injectFault[T](task); err != nil {
			return err
		}
	}
	switch task.Kind {
	case core.KGEQRT:
		a := src.TileAt(task.I, task.K)
		kernel.GEQRT(a.Rows, a.Cols, ib, a.Data, a.Stride,
			src.TFactor(task.I, task.K), a.Cols, ws)
	case core.KUNMQR:
		v := src.TileAt(task.I, task.K)
		c := src.TileAt(task.I, task.J)
		kernel.UNMQR(true, v.Rows, min(v.Rows, v.Cols), ib, v.Data, v.Stride,
			src.TFactor(task.I, task.K), v.Cols, c.Data, c.Stride, c.Cols, ws)
	case core.KTSQRT, core.KTTQRT:
		a := src.TileAt(task.Piv, task.K)
		b := src.TileAt(task.I, task.K)
		m, l := b.Rows, 0
		if task.Kind == core.KTTQRT {
			m = min(b.Rows, a.Cols)
			l = m
		}
		kernel.TPQRT(m, a.Cols, l, ib, a.Data, a.Stride, b.Data, b.Stride,
			src.T2Factor(task.I, task.K), a.Cols, ws)
	case core.KTSMQR, core.KTTMQR:
		v := src.TileAt(task.I, task.K)
		c1 := src.TileAt(task.Piv, task.J)
		c2 := src.TileAt(task.I, task.J)
		kRef := src.KCols(task.K)
		m, l := v.Rows, 0
		if task.Kind == core.KTTMQR {
			m = min(v.Rows, kRef)
			l = m
		}
		kernel.TPMQRT(true, m, kRef, l, ib, v.Data, v.Stride,
			src.T2Factor(task.I, task.K), kRef,
			c1.Data, c1.Stride, c2.Data, c2.Stride, c2.Cols, ws)
	default:
		return fmt.Errorf("tiledqr: unknown task kind %v (task %d)", task.Kind, t)
	}
	if poison {
		outTile(src, task).Data[0] = vec.FromParts[T](math.NaN(), math.NaN())
	}
	if check {
		return checkTask(src, task)
	}
	return nil
}

// ExecTasks runs every task of the plan's DAG under env, dispatching
// through ExecTask with the executing worker's own kernel workspace. The
// first dispatch error, kernel panic, health-check failure, or context
// cancellation cancels the job's outstanding tasks and is returned
// promptly — the scheduler does not drain the rest of the DAG first.
func ExecTasks[T vec.Scalar](src Source[T], p *sched.Plan, env Env, opts RunOpts, ib, wsLen int) (*sched.Trace, error) {
	d := p.DAG()
	check := opts.Check
	return env.run(p, opts, func(t int32, loc *sched.Local) error {
		return ExecTask(src, d, t, ib, WorkerWS[T](loc, wsLen), check)
	})
}

// Replay applies the Q transformations recorded in the DAG's factor tasks
// to a stacked block-row right-hand side: row(i) returns the RHS rows of
// tile row i (1-based) and their row stride. trans replays Qᴴ in execution
// order; !trans replays Q by walking the tasks backwards (task IDs are
// topological). Update-kernel tasks (UNMQR/TSMQR/TTMQR) carry no new
// reflectors and are skipped. A non-nil ctx cancels the replay at the next
// task boundary, returning ctx.Err() — the partially transformed RHS is
// then garbage, so callers must not serve it.
func Replay[T vec.Scalar](ctx context.Context, src Source[T], d *core.DAG, trans bool, row func(i int) ([]T, int), nrhs, ib int, ws []T) error {
	var cancelCh <-chan struct{}
	if ctx != nil {
		cancelCh = ctx.Done()
	}
	applyOne := func(task core.Task) {
		switch task.Kind {
		case core.KGEQRT:
			v := src.TileAt(task.I, task.K)
			c, ldc := row(task.I)
			kernel.UNMQR(trans, v.Rows, min(v.Rows, v.Cols), ib, v.Data, v.Stride,
				src.TFactor(task.I, task.K), v.Cols, c, ldc, nrhs, ws)
		case core.KTSQRT, core.KTTQRT:
			v := src.TileAt(task.I, task.K)
			c1, ldc1 := row(task.Piv)
			c2, ldc2 := row(task.I)
			kRef := src.KCols(task.K)
			m, l := v.Rows, 0
			if task.Kind == core.KTTQRT {
				m = min(v.Rows, kRef)
				l = m
			}
			kernel.TPMQRT(trans, m, kRef, l, ib, v.Data, v.Stride,
				src.T2Factor(task.I, task.K), kRef,
				c1, ldc1, c2, ldc2, nrhs, ws)
		}
	}
	canceled := func() bool {
		if cancelCh == nil {
			return false
		}
		select {
		case <-cancelCh:
			return true
		default:
			return false
		}
	}
	if trans {
		for _, task := range d.Tasks {
			if canceled() {
				return ctx.Err()
			}
			applyOne(task)
		}
	} else {
		for t := len(d.Tasks) - 1; t >= 0; t-- {
			if canceled() {
				return ctx.Err()
			}
			applyOne(d.Tasks[t])
		}
	}
	return nil
}

// Factorization is the generic one-shot tiled QR state: the factored tiles
// (R plus the Householder representation of Q) and everything needed to
// apply Q, for any scalar domain. A zero Factorization is the valid target
// of FactorInto; Refactor re-runs it over new data with zero steady-state
// allocation.
type Factorization[T vec.Scalar] struct {
	grid    tile.Grid
	mat     *tile.Matrix[T]
	dag     *core.DAG
	plan    *sched.Plan
	arena   []T   // one contiguous block: all tile payloads, then all T factors
	tg      [][]T // GEQRT T factors per tile, indexed (i-1)*q+(k-1), views into arena
	t2      [][]T // TSQRT/TTQRT T factors per tile, views into arena
	ib      int
	wsLen   int
	key     reuseKey
	env     Env
	traceOn bool
	checkOn bool
	valid   bool  // false between a failed execution and the next rebuild
	ferr    error // cause of the last failed execution, cleared on success
	trace   *sched.Trace
}

// Factor computes the tiled QR factorization A = Q·R of an m×n matrix
// (any m, n ≥ 1). A is not modified. cfg must already carry defaulted,
// validated options.
func Factor[T vec.Scalar](a *tile.Dense[T], cfg Config) (*Factorization[T], error) {
	f := &Factorization[T]{}
	if err := FactorInto(f, a, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto factors a into f, reusing f's tile arena, T-factor storage,
// task DAG and execution plan when the matrix shape and the structural
// options (algorithm, kernels, tile/inner-block sizes, tree parameters)
// match the previous factorization; otherwise the storage is rebuilt.
// Execution placement (Env) and tracing may change freely between calls.
// Steady-state refactorization performs O(1) allocations — none of them
// proportional to the matrix or task count.
//
// On error, any previous factorization held by f is gone (the reused
// storage was overwritten): f refuses to serve results until a subsequent
// FactorInto/Refactor succeeds, which rebuilds storage from scratch.
func FactorInto[T vec.Scalar](f *Factorization[T], a *tile.Dense[T], cfg Config) error {
	key := reuseKey{
		m: a.Rows, n: a.Cols,
		algorithm: cfg.Algorithm, kernels: cfg.Kernels, coreOpts: cfg.CoreOpts,
		tileSize: cfg.TileSize, innerBlock: cfg.InnerBlock,
	}
	// Input validation happens before any state is touched: a rejected
	// matrix leaves a previously valid factorization fully intact.
	if cfg.CheckHealth {
		if err := CheckFinite("input matrix", a); err != nil {
			return err
		}
	}
	// A factorization left invalid by a failed run never reuses its
	// half-written storage: rebuild from scratch.
	if f.mat == nil || !f.valid || f.key != key {
		if err := f.rebuild(cfg, key); err != nil {
			return err
		}
	}
	f.env = cfg.Env
	f.traceOn = cfg.Trace
	f.checkOn = cfg.CheckHealth
	f.trace = nil
	// The reused arena is overwritten in place: a failed execution leaves
	// half-factored tiles, so the factorization is marked invalid until a
	// run completes (R/Apply/SolveLS refuse to serve it) and the next
	// FactorInto rebuilds from scratch instead of reusing.
	f.valid = false
	// CopyFrom overwrites every element of every tile, and each T-factor
	// position a kernel reads is written by the factor kernel of the same
	// run before any applier reads it, so no zeroing of reused storage is
	// needed.
	f.mat.CopyFrom(a)
	trace, err := ExecTasks[T](f, f.plan, f.env,
		RunOpts{Ctx: cfg.Ctx, Trace: cfg.Trace, Check: cfg.CheckHealth, Stats: cfg.Stats}, f.ib, f.wsLen)
	if err != nil {
		f.ferr = err
		return err
	}
	f.valid = true
	f.ferr = nil
	f.trace = trace
	return nil
}

// Refactor re-runs the factorization over new matrix data, reusing every
// internal buffer when a has the shape of the previous factorization (the
// zero-allocation serving path; a different shape rebuilds storage). A
// Refactor after a failed or cancelled execution rebuilds storage and, on
// success, clears the sticky failure state.
func (f *Factorization[T]) Refactor(a *tile.Dense[T]) error {
	return f.RefactorCtx(nil, a)
}

// RefactorCtx is Refactor under a cancellation context: ctx applies to this
// execution only and is never retained by the factorization.
func (f *Factorization[T]) RefactorCtx(ctx context.Context, a *tile.Dense[T]) error {
	if f.mat == nil {
		return fmt.Errorf("tiledqr: Refactor on an empty factorization (use Factor first)")
	}
	cfg := Config{
		Algorithm: f.key.algorithm, Kernels: f.key.kernels, CoreOpts: f.key.coreOpts,
		TileSize: f.key.tileSize, InnerBlock: f.key.innerBlock, Env: f.env,
		Trace: f.traceOn, Ctx: ctx, CheckHealth: f.checkOn,
	}
	return FactorInto(f, a, cfg)
}

// rebuild allocates the factorization's storage for a new structural key:
// DAG, execution plan, and one contiguous arena holding every tile payload
// followed by every T factor (replacing the former p×q individual
// allocations).
func (f *Factorization[T]) rebuild(cfg Config, key reuseKey) error {
	g := tile.NewGrid(key.m, key.n, cfg.TileSize)
	list, err := core.Generate(cfg.Algorithm, g.P, g.Q, cfg.CoreOpts)
	if err != nil {
		return err
	}
	f.grid = g
	f.dag = core.BuildDAG(list, cfg.Kernels)
	f.plan = sched.NewPlan(f.dag)
	f.ib = cfg.InnerBlock
	// Size worker scratch by the tiles that actually occur: a TileSize far
	// beyond the matrix (legal — the grid is then a single tile) must not
	// inflate the quadratic micro-GEMM pack bound inside WorkLen.
	f.wsLen = kernel.WorkLen(min(cfg.TileSize, max(g.M, g.N)), f.ib)
	f.key = key

	tNeed := 0
	for _, t := range f.dag.Tasks {
		switch t.Kind {
		case core.KGEQRT, core.KTSQRT, core.KTTQRT:
			tNeed += f.ib * g.TileCols(t.K-1)
		}
	}
	f.arena = make([]T, g.M*g.N+tNeed)
	f.mat = tile.NewMatrixOn[T](g, f.arena[:g.M*g.N])
	f.tg = make([][]T, g.P*g.Q)
	f.t2 = make([][]T, g.P*g.Q)
	off := g.M * g.N
	carve := func(k int) []T {
		n := f.ib * g.TileCols(k-1)
		s := f.arena[off : off+n : off+n]
		off += n
		return s
	}
	for _, t := range f.dag.Tasks {
		switch t.Kind {
		case core.KGEQRT:
			f.tg[f.tidx(t.I, t.K)] = carve(t.K)
		case core.KTSQRT, core.KTTQRT:
			f.t2[f.tidx(t.I, t.K)] = carve(t.K)
		}
	}
	return nil
}

// tidx maps 1-based tile coordinates to storage index.
func (f *Factorization[T]) tidx(i, k int) int { return (i-1)*f.grid.Q + (k - 1) }

// TileAt, TFactor, T2Factor and KCols implement Source with the plain grid
// mapping (tile row i is tile row i).
func (f *Factorization[T]) TileAt(i, k int) *tile.Dense[T] { return f.mat.Tile(i-1, k-1) }

// TFactor returns the GEQRT T-factor storage of tile (i, k).
func (f *Factorization[T]) TFactor(i, k int) []T { return f.tg[f.tidx(i, k)] }

// T2Factor returns the TSQRT/TTQRT T-factor storage of tile (i, k).
func (f *Factorization[T]) T2Factor(i, k int) []T { return f.t2[f.tidx(i, k)] }

// KCols returns the column count of tile column k (1-based).
func (f *Factorization[T]) KCols(k int) int { return f.grid.TileCols(k - 1) }

// workPools holds the ApplyQ/ApplyQT/SolveLS scratch slices, one
// sync.Pool per scalar domain (slotted like the worker workspaces),
// shared by every factorization. The pools live at package level on
// purpose: a sync.Pool embedded in a Factorization is registered with the
// runtime by address on first use, and that interior pointer keeps the
// whole factorization — arena included — alive for two extra GC cycles
// after its last user drops it.
var workPools [4]sync.Pool

// getWork fetches a pooled scratch slice of at least n elements; putWork
// returns it. Steady-state Q applications allocate nothing.
func getWork[T vec.Scalar](n int) []T {
	if w, ok := workPools[wsSlot[T]()].Get().(*[]T); ok && len(*w) >= n {
		return *w
	}
	return make([]T, n)
}

func putWork[T vec.Scalar](w []T) {
	workPools[wsSlot[T]()].Put(&w)
}

// errInvalid is the state guard shared by every factor accessor: a failed
// Factor/FactorInto/Refactor leaves half-factored tiles that must never be
// served as results.
func (f *Factorization[T]) errInvalid(op string) error {
	if f.valid {
		return nil
	}
	if f.ferr != nil {
		return fmt.Errorf("tiledqr: %s on an invalid factorization (the last factorization attempt failed: %w; re-run Factor, FactorInto or Refactor)", op, f.ferr)
	}
	return fmt.Errorf("tiledqr: %s on an invalid factorization (the last factorization attempt failed; re-run Factor or FactorInto)", op)
}

// Err returns the cause of the last failed execution (nil when the
// factorization is valid) — the sticky error the accessors wrap.
func (f *Factorization[T]) Err() error {
	if f.valid {
		return nil
	}
	return f.ferr
}

// R returns the min(m,n)×n upper triangular (trapezoidal) factor.
func (f *Factorization[T]) R() *tile.Dense[T] {
	if err := f.errInvalid("R"); err != nil {
		panic(err) // value-returning accessor: fail loudly, never silently serve garbage
	}
	r := tile.NewDense[T](min(f.grid.M, f.grid.N), f.grid.N)
	f.copyR(r.Data, r.Stride)
	return r
}

// RInto writes the leading k×k (k = min(m,n), capped at dst's shape by ldr
// and len) upper triangle of R into dst with row stride ldr, leaving dst's
// strictly lower part untouched. It is the allocation-free sibling of R for
// callers that keep a resident R buffer across factorizations — the
// distributed reduction tree refills its combine buffer from here every
// round. dst must hold at least k rows of ldr with ldr ≥ n.
func (f *Factorization[T]) RInto(dst []T, ldr int) error {
	if err := f.errInvalid("RInto"); err != nil {
		return err
	}
	n := f.grid.N
	k := min(f.grid.M, n)
	if ldr < n {
		return fmt.Errorf("tiledqr: RInto: row stride %d < n=%d", ldr, n)
	}
	if need := (k-1)*ldr + n; len(dst) < need {
		return fmt.Errorf("tiledqr: RInto: dst has %d elements, need %d", len(dst), need)
	}
	f.copyR(dst, ldr)
	return nil
}

// copyR copies the upper triangle of R's k rows into dst (row stride ldr),
// one tile-row segment per copy: the diagonal tile from the diagonal on,
// then each tile to its right.
func (f *Factorization[T]) copyR(dst []T, ldr int) {
	nb := f.grid.NB
	for i := 0; i < min(f.grid.M, f.grid.N); i++ {
		ti, li := i/nb, i%nb
		for tj, j0 := ti, li; tj < f.grid.Q; tj, j0 = tj+1, 0 {
			u := f.mat.Tile(ti, tj)
			copy(dst[i*ldr+tj*nb+j0:i*ldr+tj*nb+u.Cols], u.Data[li*u.Stride+j0:li*u.Stride+u.Cols])
		}
	}
}

// Apply overwrites b (m×nrhs) with Qᴴ·b (trans) or Q·b by replaying the
// factorization's transformations. A non-nil ctx cancels the replay at a
// task boundary; b is then partially transformed and must be discarded.
func (f *Factorization[T]) Apply(ctx context.Context, b *tile.Dense[T], trans bool) error {
	if err := f.errInvalid("ApplyQ"); err != nil {
		return err
	}
	if b == nil {
		return fmt.Errorf("tiledqr: ApplyQ: b must not be nil")
	}
	if b.Rows != f.grid.M {
		return fmt.Errorf("tiledqr: ApplyQ: b has %d rows, want %d", b.Rows, f.grid.M)
	}
	nrhs := b.Cols
	ws := getWork[T](kernel.ApplyWorkLen(f.grid.NB, f.ib, max(nrhs, 1)))
	defer putWork(ws)
	// row returns b from the first row of tile row i (1-based) on.
	row := func(i int) ([]T, int) {
		return b.Data[(i-1)*f.grid.NB*b.Stride:], b.Stride
	}
	return Replay[T](ctx, f, f.dag, trans, row, nrhs, f.ib, ws)
}

// Q returns the full m×m orthogonal (unitary) factor, built by applying Q
// to the identity; O(m³) work — prefer ThinQ or Apply for large m.
func (f *Factorization[T]) Q() *tile.Dense[T] {
	q := tile.Identity[T](f.grid.M)
	if err := f.Apply(nil, q, false); err != nil {
		panic(err) // identity always has the right shape
	}
	return q
}

// ThinQ returns the first min(m,n) columns of Q (the orthonormal basis of
// A's column span when A has full column rank).
func (f *Factorization[T]) ThinQ() *tile.Dense[T] {
	k := min(f.grid.M, f.grid.N)
	e := tile.NewDense[T](f.grid.M, k)
	for i := 0; i < k; i++ {
		e.Set(i, i, 1)
	}
	if err := f.Apply(nil, e, false); err != nil {
		panic(err)
	}
	return e
}

// SolveLS solves the least-squares problem min‖A·x − b‖₂ for each column of
// b (m×nrhs), returning the n×nrhs solution. Requires m ≥ n and a
// nonsingular R. A non-nil ctx cancels the Qᴴ·b replay at a task boundary.
// The cost is O(m·n·nrhs): Qᴴ·b replays the factor kernels' reflectors and
// the back-substitution reads R in place from the factored tiles, so no
// n×n copy of R is formed.
func (f *Factorization[T]) SolveLS(ctx context.Context, b *tile.Dense[T]) (*tile.Dense[T], error) {
	if err := f.errInvalid("SolveLS"); err != nil {
		return nil, err
	}
	m, n := f.grid.M, f.grid.N
	if m < n {
		return nil, fmt.Errorf("tiledqr: SolveLS needs m ≥ n (have %d×%d)", m, n)
	}
	if b == nil {
		return nil, fmt.Errorf("tiledqr: SolveLS: b must not be nil")
	}
	if b.Rows != m {
		return nil, fmt.Errorf("tiledqr: SolveLS: b has %d rows, want %d", b.Rows, m)
	}
	qtb := b.Clone()
	if err := f.Apply(ctx, qtb, true); err != nil {
		return nil, err
	}
	x := tile.NewDense[T](n, b.Cols)
	// Row-oriented back-substitution (shared with the streaming path); the
	// solution column lives in a pooled contiguous scratch until written
	// back.
	xcol := getWork[T](n)
	defer putWork(xcol)
	if err := work.SolveUpperRows(n, b.Cols, f.rowDot, qtb.Data, qtb.Stride,
		x.Data, x.Stride, xcol[:n]); err != nil {
		return nil, err
	}
	return x, nil
}

// rowDot returns R(i,i) and Σ_{j>i} R(i,j)·x[j] read from the factored
// tiles: the diagonal tile's row i past the diagonal (the strictly lower
// V there is never touched), then row i of each tile to its right.
func (f *Factorization[T]) rowDot(i int, x []T) (diag, dot T) {
	nb := f.grid.NB
	ti, li := i/nb, i%nb
	d := f.mat.Tile(ti, ti)
	row := d.Data[li*d.Stride : li*d.Stride+d.Cols]
	dot = vec.Dot(row[li+1:], x[i+1:])
	for tj := ti + 1; tj < f.grid.Q; tj++ {
		u := f.mat.Tile(ti, tj)
		dot += vec.Dot(u.Data[li*u.Stride:li*u.Stride+u.Cols], x[tj*nb:])
	}
	return row[li], dot
}

// Trace returns the execution trace (nil unless Config.Trace was set).
func (f *Factorization[T]) Trace() *sched.Trace { return f.trace }

// GanttChart renders an ASCII Gantt chart of the traced execution (one row
// per worker, `width` time columns). Requires Config.Trace.
func (f *Factorization[T]) GanttChart(width int) string {
	if f.trace == nil || f.trace.Spans == nil {
		return "(run with Options.Trace to record a Gantt chart)\n"
	}
	return f.trace.Gantt(f.dag, width)
}

// Utilization returns per-worker busy fractions and overall parallel
// efficiency of the traced execution. Requires Config.Trace.
func (f *Factorization[T]) Utilization() sched.Utilization {
	if f.trace == nil {
		return sched.Utilization{}
	}
	return f.trace.Utilization()
}

// TaskCount returns the number of kernel tasks the factorization executed.
func (f *Factorization[T]) TaskCount() int { return f.dag.NumTasks() }

// DAG exposes the executed task DAG (trace validation in tests).
func (f *Factorization[T]) DAG() *core.DAG { return f.dag }

// Grid returns the tile grid dimensions (p×q) and tile size.
func (f *Factorization[T]) Grid() (p, q, nb int) { return f.grid.P, f.grid.Q, f.grid.NB }
