package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"tiledqr"
	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/kernel"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// The traced run measures each layer by timing calls into its exported
// functions on the workload's ladder problem, in the workload's precision.

// ladderSpec is a workload's ladder problem.
type ladderSpec struct {
	m, n       int  // the factorization the ladder times
	reuse      bool // FactorInto on a reused factorization, else fresh
	dagM, dagN int  // the factorization whose trace gives dag.*
	streamN    int  // columns of the stream stream.* times
}

func ladderFor(name string) ladderSpec {
	switch name {
	case "square_z":
		return ladderSpec{m: 512, n: 512, dagM: 512, dagN: 512, streamN: 512}
	case "serve_mixed":
		return ladderSpec{m: serveFactorM, n: serveFactorN, dagM: 4096, dagN: 256, streamN: serveFactorN}
	default: // tall_ls, and stream_window, whose window is a 4096×256 matrix
		return ladderSpec{m: 4096, n: 256, reuse: true, dagM: 4096, dagN: 256, streamN: 256}
	}
}

// Shares of the traced run's time per layer; the remaining share times the
// workload's own operation with and without tracing.
const (
	shareVec    = 0.03
	shareKernel = 0.12
	shareDAG    = 0.12
	shareSched  = 0.15
	shareEngine = 0.13
	shareStream = 0.12
	shareServe  = 0.13
	shareOps    = 1 - shareVec - shareKernel - shareDAG - shareSched - shareEngine - shareStream - shareServe
)

// repeat calls fn until d has passed and fn has run at least minReps times.
func repeat(d time.Duration, minReps int, fn func() error) error {
	deadline := time.Now().Add(d)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// timed records fn as a root span named name.
func timed(rec *recorder, name string, fn func() error) error {
	_, err := rec.do(name, 0, func(int) error { return fn() })
	return err
}

// gflopsOf converts a flop count and a median duration in ms to GFLOP/s.
func gflopsOf(flops, medMS float64) float64 { return flops / (medMS * 1e6) }

// tileFlops is the flop count of one full-tile kernel of kind k: its
// Table 1 weight in units of nb³/3, four times larger in complex.
func tileFlops[T scalar](k core.Kind) float64 {
	f := float64(k.Weight()) * tileNB * tileNB * tileNB / 3
	if isComplex[T]() {
		f *= 4
	}
	return f
}

func engineConfig(env engine.Env) engine.Config {
	return engine.Config{Algorithm: core.Greedy, Kernels: core.TT, TileSize: tileNB, InnerBlock: tileIB, Env: env}
}

func shared() engine.Env { return engine.Env{Runtime: sched.Default()} }

func dense[T scalar](m *tiledqr.Mat[T]) *tile.Dense[T] { return (*tile.Dense[T])(m) }

// engineFactor returns a call that factors a through the engine on the
// spec's path, and the factorization it last produced.
func engineFactor[T scalar](a *tiledqr.Mat[T], reuse bool, cfg engine.Config) (func() error, func() *engine.Factorization[T]) {
	f := &engine.Factorization[T]{}
	if reuse {
		return func() error { return engine.FactorInto(f, dense(a), cfg) }, func() *engine.Factorization[T] { return f }
	}
	return func() (err error) {
		f, err = engine.Factor(dense(a), cfg)
		return err
	}, func() *engine.Factorization[T] { return f }
}

func ladder[T scalar](spec ladderSpec, in *inputs, budget time.Duration, rec *recorder, out map[string]float64) error {
	part := func(share float64) time.Duration { return time.Duration(share * float64(budget)) }
	steps := []struct {
		name string
		fn   func() error
	}{
		{"vec", func() error { return vecLayer[T](in, part(shareVec), rec, out) }},
		{"kernel", func() error { return kernelLayer[T](in, part(shareKernel), rec, out) }},
		{"dag", func() error { return dagLayer[T](in, spec, part(shareDAG), rec, out) }},
		{"sched", func() error { return schedLayer[T](in, spec, part(shareSched), rec, out) }},
		{"engine", func() error { return engineLayer[T](in, spec, part(shareEngine), rec, out) }},
		{"stream", func() error { return streamLayer[T](in, spec.streamN, part(shareStream), rec, out) }},
		{"serve", func() error { return serveLayer[T](in, part(shareServe), rec, out) }},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
	}
	return nil
}

// vecLayer times the packed micro-GEMM on a 128³ product. The complex
// domains have no packed path; for them it times the vec.Axpy2 row loop
// their GEMM falls back to.
func vecLayer[T scalar](in *inputs, d time.Duration, rec *recorder, out map[string]float64) error {
	const nb = tileNB
	a, b := randMat[T](in, nb, nb).Data, randMat[T](in, nb, nb).Data
	c := make([]T, nb*nb)
	pack := make([]T, vec.GemmPackLen[T](nb, nb, nb))
	gemm := func() error {
		if vec.GemmNN(nb, nb, nb, T(1), a, nb, b, nb, c, nb, pack) {
			return nil
		}
		for i := 0; i < nb; i++ {
			ci := c[i*nb : (i+1)*nb]
			for l := 0; l < nb; l += 2 {
				vec.Axpy2(a[i*nb+l], b[l*nb:(l+1)*nb], a[i*nb+l+1], b[(l+1)*nb:(l+2)*nb], ci)
			}
		}
		return nil
	}
	if err := repeat(d, 5, func() error { return timed(rec, "vec.gemm", gemm) }); err != nil {
		return err
	}
	flops := 2.0 * nb * nb * nb
	if isComplex[T]() {
		flops *= 4
	}
	out["vec.gemm_gflops"] = gflopsOf(flops, rec.medianMS("vec.gemm"))
	return nil
}

// upper returns a copy of a with its strictly lower triangle zeroed.
func upper[T scalar](a []T, n int) []T {
	u := append([]T(nil), a...)
	for i := 0; i < n; i++ {
		clear(u[i*n : i*n+i])
	}
	return u
}

// kernelLayer times the four TT-family kernels alone on full tiles. The
// factor kernels restore their input before every call, untimed.
func kernelLayer[T scalar](in *inputs, d time.Duration, rec *recorder, out map[string]float64) error {
	const nb, ib = tileNB, tileIB
	work := make([]T, kernel.WorkLen(nb, ib))
	each := d / 4
	run := func(name string, restore, call func()) error {
		return repeat(each, 5, func() error {
			restore()
			return timed(rec, "kernel."+name, func() error { call(); return nil })
		})
	}
	none := func() {}

	a0 := randMat[T](in, nb, nb).Data
	a, t := make([]T, nb*nb), make([]T, ib*nb)
	if err := run("geqrt", func() { copy(a, a0) },
		func() { kernel.GEQRT(nb, nb, ib, a, nb, t, nb, work) }); err != nil {
		return err
	}
	// UNMQR applies the last GEQRT's reflectors to a full tile.
	c := randMat[T](in, nb, nb).Data
	if err := run("unmqr", none,
		func() { kernel.UNMQR(true, nb, nb, ib, a, nb, t, nb, c, nb, nb, work) }); err != nil {
		return err
	}
	r1, r2 := upper(randMat[T](in, nb, nb).Data, nb), upper(randMat[T](in, nb, nb).Data, nb)
	x1, x2, t2 := make([]T, nb*nb), make([]T, nb*nb), make([]T, ib*nb)
	if err := run("ttqrt", func() { copy(x1, r1); copy(x2, r2) },
		func() { kernel.TTQRT(nb, nb, ib, x1, nb, x2, nb, t2, nb, work) }); err != nil {
		return err
	}
	// TTMQR applies the last TTQRT's reflectors to a pair of full tiles.
	c1, c2 := randMat[T](in, nb, nb).Data, randMat[T](in, nb, nb).Data
	if err := run("ttmqr", none,
		func() { kernel.TTMQR(true, nb, nb, ib, x2, nb, t2, nb, c1, nb, c2, nb, nb, work) }); err != nil {
		return err
	}
	for _, k := range []core.Kind{core.KGEQRT, core.KUNMQR, core.KTTQRT, core.KTTMQR} {
		name := kindName(k)
		out["kernel."+name+"_gflops"] = gflopsOf(tileFlops[T](k), rec.medianMS("kernel."+name))
	}
	return nil
}

// kindName is a kind's name in metric names: "geqrt" for GEQRT.
func kindName(k core.Kind) string { return strings.ToLower(k.String()) }

// dagLayer factors the dag problem with Options.Trace on and groups the
// trace's task spans by the kind DAG() gives each task.
func dagLayer[T scalar](in *inputs, spec ladderSpec, d time.Duration, rec *recorder, out map[string]float64) error {
	if spec.dagM%tileNB != 0 || spec.dagN%tileNB != 0 {
		return fmt.Errorf("dag problem %d×%d has partial tiles", spec.dagM, spec.dagN)
	}
	a := randMat[T](in, spec.dagM, spec.dagN)
	cfg := engineConfig(shared())
	cfg.Trace = true
	f := &engine.Factorization[T]{}
	if err := engine.FactorInto(f, dense(a), cfg); err != nil { // builds storage, untimed
		return err
	}
	busy := map[core.Kind]time.Duration{}
	count := map[core.Kind]int{}
	err := repeat(d, 3, func() error {
		if err := timed(rec, "dag.factor", func() error { return engine.FactorInto(f, dense(a), cfg) }); err != nil {
			return err
		}
		tasks := f.DAG().Tasks
		for _, s := range f.Trace().Spans {
			k := tasks[s.Task].Kind
			busy[k] += s.End - s.Start
			count[k]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	for _, k := range []core.Kind{core.KGEQRT, core.KUNMQR, core.KTTQRT, core.KTTMQR} {
		if count[k] == 0 {
			return fmt.Errorf("the %d×%d DAG has no %v task", spec.dagM, spec.dagN, k)
		}
		out["dag."+kindName(k)+"_gflops"] = float64(count[k]) * tileFlops[T](k) / busy[k].Seconds() / 1e9
	}
	panel := busy[core.KGEQRT] + busy[core.KTTQRT] + busy[core.KTSQRT]
	out["dag.panel_share"] = float64(panel) / float64(total)
	return nil
}

// schedLayer measures the DAG build (core) and the runtime (sched) on the
// ladder problem.
func schedLayer[T scalar](in *inputs, spec ladderSpec, d time.Duration, rec *recorder, out map[string]float64) error {
	g := tile.NewGrid(spec.m, spec.n, tileNB)
	var dag *core.DAG
	var prio []int64
	err := repeat(d/6, 5, func() error {
		return timed(rec, "core.dag_build", func() error {
			list, err := core.Generate(core.Greedy, g.P, g.Q, core.Options{})
			if err != nil {
				return err
			}
			dag = core.BuildDAG(list, core.TT)
			prio = sched.Priorities(dag)
			return nil
		})
	})
	if err != nil {
		return err
	}
	out["core.dag_build_ms"] = rec.medianMS("core.dag_build")
	var cp int64
	for _, p := range prio {
		cp = max(cp, p)
	}
	out["core.critical_path_units"] = float64(cp)

	// JobStats of the factorization on the shared runtime.
	a := randMat[T](in, spec.m, spec.n)
	var js sched.JobStats
	cfg := engineConfig(shared())
	cfg.Stats = &js
	factor, _ := engineFactor(a, spec.reuse, cfg)
	if err := factor(); err != nil {
		return err
	}
	workers := float64(sched.Default().Workers())
	var tasks, busy, wall, idle []float64
	err = repeat(d/3, 5, func() error {
		if err := factor(); err != nil {
			return err
		}
		tasks = append(tasks, float64(js.Tasks))
		busy = append(busy, msOf(js.Busy))
		wall = append(wall, msOf(js.Wall))
		idle = append(idle, 1-float64(js.Busy)/(workers*float64(js.Wall)))
		return nil
	})
	if err != nil {
		return err
	}
	out["sched.tasks_per_op"] = median(tasks)
	out["sched.busy_ms_per_op"] = median(busy)
	out["sched.wall_ms_per_op"] = median(wall)
	out["sched.idle_frac"] = median(idle)

	// Dispatch cost: the same DAG with kernels that do nothing.
	plan := sched.NewPlan(dag)
	noop := func(int32, *sched.Local) error { return nil }
	err = repeat(d/6, 20, func() error {
		return timed(rec, "sched.noop_dag", func() error {
			_, err := sched.Default().Exec(plan, sched.Options{}, noop)
			return err
		})
	})
	if err != nil {
		return err
	}
	out["sched.dispatch_ns_per_task"] = rec.medianMS("sched.noop_dag") * 1e6 / float64(dag.NumTasks())

	// Speed-up of the shared runtime over the inline Workers: 1 path.
	inline, _ := engineFactor(a, spec.reuse, engineConfig(engine.Env{Workers: 1}))
	onRuntime, _ := engineFactor(a, spec.reuse, engineConfig(shared()))
	err = repeat(d/3, 3, func() error {
		if err := timed(rec, "sched.inline_factor", inline); err != nil {
			return err
		}
		return timed(rec, "sched.shared_factor", onRuntime)
	})
	if err != nil {
		return err
	}
	out["sched.speedup"] = rec.medianMS("sched.inline_factor") / rec.medianMS("sched.shared_factor")
	return nil
}

// engineLayer times the engine's factor and solve against the public API
// on the same inputs, alternately. The engine's self time is a factor
// call's duration minus its DAG's wall time from JobStats, and the API's
// overhead its call minus the engine call before it; both are medians of
// these paired differences.
func engineLayer[T scalar](in *inputs, spec ladderSpec, d time.Duration, rec *recorder, out map[string]float64) error {
	a, b := randMat[T](in, spec.m, spec.n), randMat[T](in, spec.m, 1)
	var js sched.JobStats
	cfg := engineConfig(shared())
	cfg.Stats = &js
	factor, last := engineFactor(a, spec.reuse, cfg)
	pub := newPublicFactor[T](spec.reuse)
	if err := factor(); err != nil {
		return err
	}
	if _, err := pub.factor(a); err != nil {
		return err
	}
	var self, overhead []float64
	err := repeat(d, 5, func() error {
		engOp, err := rec.do("engine.op", 0, func(id int) error {
			ef, err := rec.do("engine.factor", id, func(int) error { return factor() })
			if err != nil {
				return err
			}
			self = append(self, msOf(ef-js.Wall))
			_, err = rec.do("engine.solve", id, func(int) error {
				_, err := last().SolveLS(nil, dense(b))
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		apiOp, err := rec.do("api.op", 0, func(id int) error {
			var f lsFact[T]
			if _, err := rec.do("api.factor", id, func(int) (err error) {
				f, err = pub.factor(a)
				return err
			}); err != nil {
				return err
			}
			_, err := rec.do("api.solve", id, func(int) error {
				_, err := f.SolveLS(b)
				return err
			})
			return err
		})
		overhead = append(overhead, msOf(apiOp-engOp))
		return err
	})
	if err != nil {
		return err
	}
	const allocReps = 5
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocReps; i++ {
		if err := factor(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	out["engine.factor_ms"] = rec.medianMS("engine.factor")
	out["engine.solve_ms"] = rec.medianMS("engine.solve")
	out["engine.self_ms"] = median(self)
	out["engine.alloc_bytes_per_factor"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / allocReps
	out["api.overhead_ms"] = median(overhead)
	return nil
}

// streamLayer replays a windowed stream with the window's work split into
// its parts: a RetainAll stream appends a batch, downdates as many rows
// explicitly, and solves.
func streamLayer[T scalar](in *inputs, n int, d time.Duration, rec *recorder, out map[string]float64) error {
	const pool = 4
	var batches []rowBlock[T]
	for k := 0; k < pool; k++ {
		batches = append(batches, rowBlock[T]{randMat[T](in, streamBatch, n), randMat[T](in, streamBatch, 1)})
	}
	start := time.Now()
	opt := pinned()
	opt.WindowRows = tiledqr.RetainAll
	s, err := tiledqr.NewStreamOf[T](n, opt)
	if err != nil {
		return err
	}
	for k := 0; k < streamWindowBatches; k++ {
		if err := s.AppendRHS(batches[k%pool].a, batches[k%pool].b); err != nil {
			return err
		}
	}
	i := 0
	err = repeat(d-time.Since(start), 3, func() error {
		blk := batches[i%pool]
		i++
		if err := timed(rec, "stream.append", func() error { return s.AppendRHS(blk.a, blk.b) }); err != nil {
			return err
		}
		if err := timed(rec, "stream.downdate", func() error { return s.DowndateRows(streamBatch) }); err != nil {
			return err
		}
		return timed(rec, "stream.solve", func() error {
			_, err := s.SolveLS()
			return err
		})
	})
	if err != nil {
		return err
	}
	if s.Rows() != streamBatch*streamWindowBatches {
		return fmt.Errorf("stream holds %d rows, want %d", s.Rows(), streamBatch*streamWindowBatches)
	}
	q := (n + tileNB - 1) / tileNB
	pb := (streamBatch + tileNB - 1) / tileNB
	var z T
	out["stream.append_ms"] = rec.medianMS("stream.append")
	out["stream.downdate_ms"] = rec.medianMS("stream.downdate")
	out["stream.solve_ms"] = rec.medianMS("stream.solve")
	out["stream.merge_tasks_per_append"] = float64(core.BuildStreamDAG(q, pb, core.TT).NumTasks())
	out["stream.footprint_bytes"] = float64(s.Footprint()) * float64(unsafe.Sizeof(z))
	return nil
}

// serveLayer times requests one at a time against the engine on the same
// problems, then runs a short open loop of the serve_mixed mix for the
// server's coalescing and throttling counters and the sender's lag.
func serveLayer[T scalar](in *inputs, d time.Duration, rec *recorder, out map[string]float64) error {
	mix, err := newServeMix[T](in)
	if err != nil {
		return err
	}
	defer mix.srv.Close()
	engFactor := func(a *tiledqr.Mat[T]) (*engine.Factorization[T], error) {
		return engine.Factor(dense(a), engineConfig(shared()))
	}
	k := 0
	err = repeat(d/2, 4, func() error {
		k = (k + 1) % servePool
		for _, factor := range []bool{true, false} {
			kind := "solve"
			if factor {
				kind = "factor"
			}
			if r := mix.send(arrival{factor: factor, body: k, traced: true}, time.Now(), rec); r.err != nil {
				return r.err
			}
			if err := timed(rec, "serve.engine."+kind, func() error {
				if factor {
					_, err := engFactor(mix.factA[k])
					return err
				}
				f, err := engFactor(mix.solveA)
				if err != nil {
					return err
				}
				_, err = f.SolveLS(nil, dense(mix.solveB[k]))
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, kind := range []string{"factor", "solve"} {
		req := rec.medianMS("serve.handler/v1/" + kind)
		out["serve.request_ms."+kind] = req
		out["serve.overhead_ms."+kind] = req - rec.medianMS("serve.engine."+kind)
	}

	before, err := mix.statsz()
	if err != nil {
		return err
	}
	arrivals := mix.schedule(in, serveRate, d/2, 0)
	res := mix.runOpen(arrivals, nil)
	after, err := mix.statsz()
	if err != nil {
		return err
	}
	var solves float64
	var lags []float64
	for i, r := range res.res {
		if r.err != nil && !r.refused {
			return r.err
		}
		if !arrivals[i].factor {
			solves++
		}
		lags = append(lags, msOf(r.lag))
	}
	if solves == 0 || len(res.res) == 0 {
		return errors.New("the open loop sent no solve request")
	}
	out["serve.coalesce_ratio"] = float64(after.Server.CoalescedRequests-before.Server.CoalescedRequests) / solves
	out["serve.throttled_frac"] = float64(after.Server.Throttled-before.Server.Throttled) / float64(len(res.res))
	out["serve.generator_lag_ms"] = quantile(lags, 0.95)
	return nil
}
