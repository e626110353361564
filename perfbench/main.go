// Command perfbench is the repository's benchmark: one workload per run,
// from the tile kernels to a served request. Run it from the repository
// root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tall_ls --seed 1 --seconds 38 --trace 0
//	bash perfbench/run.sh manifest          # rewrite BENCHMARK.json and perfbench/layers.json
//	bash perfbench/run.sh compare BASE HEAD # gate HEAD's medians against BASE's
//
// With --trace 0 a run measures the workload's end-to-end metrics through
// the public tiledqr API with tracing off; with --trace 1 it measures every
// per-layer metric instead. Either way the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Lines
// before it give the host fingerprint and each metric with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// procStart is as close to process start as Go code gets: package
// variables initialise before main runs.
var procStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s reports
// the median.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "manifest":
			if err := writeManifests("."); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			return 0
		case "compare":
			return compareCmd(args[1:])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Int("seconds", runSeconds, "seconds to measure")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if _, set := os.LookupEnv("TILEDQR_FAULT"); set {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to run with TILEDQR_FAULT set: injected faults would be measured as the program's own")
		return 2
	}
	fp := fingerprint()
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("fingerprint %s\n", fpJSON)
	fmt.Printf("workload %s seed %d seconds %d trace %d: %s\n", w.Name, *seed, *seconds, *trace, w.Op)

	d := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, d)
	} else {
		res, err = endToEndRun(w, *seed, d)
	}
	if err == nil {
		err = res.validate(*trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, m := range metricsOf(*trace == 1) {
		fmt.Printf("metric %-32s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if *trace == 1 {
		for _, k := range []string{"geqrt", "ttqrt", "unmqr", "ttmqr"} {
			in, alone := res.Metrics["dag."+k+"_gflops"].Value, res.Metrics["kernel."+k+"_gflops"].Value
			fmt.Printf("in-DAG %-5s %8.4g GFLOP/s against %8.4g alone: %.0f%%\n", k, in, alone, 100*in/alone)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricsOf lists the metrics of one mode in the order spec.go defines
// them, each layer's next to its neighbours'.
func metricsOf(traced bool) []layerMetric {
	if traced {
		return perLayer()
	}
	var ms []layerMetric
	for _, m := range endToEnd {
		ms = append(ms, layerMetric{m.Name, m.Unit, m.Better})
	}
	return ms
}

// set stores the metrics of one mode from raw values, with their units.
func (r *result) set(values map[string]float64, traced bool) {
	r.Metrics = map[string]metricValue{}
	for _, m := range metricsOf(traced) {
		if v, ok := values[m.Name]; ok {
			r.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
}

// validate checks that every metric of the mode is present and finite.
func (r *result) validate(traced bool) error {
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, m := range metricsOf(traced) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
	}
	return nil
}

// setup builds a workload's state from the seed; every input is generated
// here, before timing starts.
type setup struct {
	closed closedWorkload
	mix    *serveMix[float64]
	sched  []arrival
}

func (s *setup) close() {
	if s.mix != nil {
		s.mix.srv.Close()
	}
}

func newSetup(w workloadDef, seed int64, d time.Duration, tracedShare float64) (*setup, error) {
	var err error
	s := &setup{}
	switch w.Name {
	case "tall_ls":
		s.closed, err = newFactorLS[float64](seed, 4096, 256, true)
	case "square_z":
		s.closed, err = newFactorLS[complex128](seed, 512, 512, false)
	case "stream_window":
		s.closed, err = newStreamLS[float64](seed, 256)
	case "serve_mixed":
		in := newInputs(seed)
		if s.mix, err = newServeMix[float64](in); err == nil {
			s.sched = s.mix.schedule(in, serveRate, d, tracedShare)
		}
	default:
		err = fmt.Errorf("unknown workload %q", w.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.Name, err)
	}
	return s, nil
}

// sampleOp picks which operation of a run gets the full check.
func sampleOp(seed int64) int { return rand.New(rand.NewSource(seed ^ 0x5eed)).Intn(8) }

// endToEndRun sets the workload up setupReps times, then measures it for d
// with tracing off.
func endToEndRun(w workloadDef, seed int64, d time.Duration) (result, error) {
	pre := time.Since(procStart)
	var s *setup
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.close()
			s = nil
			debug.FreeOSMemory() // collects the discarded set-up before the next
		}
		t0 := time.Now()
		var err error
		if s, err = newSetup(w, seed, d, 0); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	runtime.GC()
	v := map[string]float64{"setup_s": pre.Seconds() + median(setups)}
	var res result
	var lat []float64
	var busy, okFlops, okRows float64
	if s.closed != nil {
		r, err := runClosed(s.closed, d, sampleOp(seed))
		if err != nil {
			return result{}, err
		}
		full := s.closed.fullCheck()
		res = result{Attempted: r.attempted, Failed: r.failed, Correct: r.badResult == 0 && r.errored == 0 && full == nil}
		report(r.firstErr, full)
		for i, l := range r.lat {
			lat = append(lat, latencyMS(l, r.failedLat[i], d))
		}
		busy, okFlops, okRows = r.busy.Seconds(), r.okFlops, r.okRows
		v["alloc_bytes_per_op"] = float64(r.alloc) / float64(r.attempted)
	} else {
		o := s.mix.runOpen(s.sched, nil)
		full := s.mix.fullCheck(sampleOp(seed))
		var bad, errored int
		var firstErr error
		for _, q := range o.res {
			lat = append(lat, latencyMS(q.lat, q.err != nil, d))
			if q.err != nil {
				res.Failed++
				if firstErr == nil {
					firstErr = q.err
				}
				if q.bad {
					bad++
				} else if !q.refused {
					errored++
				}
				continue
			}
			okFlops += q.flops
			okRows += q.rows
		}
		res.Attempted = len(o.res)
		res.Correct = bad == 0 && errored == 0 && full == nil
		report(firstErr, full)
		busy = o.wall.Seconds()
		v["alloc_bytes_per_op"] = float64(o.alloc) / float64(max(1, len(o.res)))
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	v["gflops"] = okFlops / busy / 1e9
	v["rows_per_s"] = okRows / busy
	v["latency_p50_ms"] = quantile(lat, 0.50)
	p95 := quantile(lat, 0.95)
	v["success_frac"] = 1 - float64(res.Failed)/float64(res.Attempted)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	v["peak_rss_mb"] = rss
	fmt.Printf("samples %d, failed %d, fail_frac %.4g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("latency_p95_ms %.6g ms, %d samples beyond it (printed, not gated)\n",
		p95, res.Attempted-int(math.Ceil(0.95*float64(res.Attempted))))
	res.set(v, false)
	return res, nil
}

// latencyMS is an operation's latency for the percentiles: a failed
// operation counts as missing any limit up to the run's length.
func latencyMS(l time.Duration, failed bool, run time.Duration) float64 {
	if failed {
		return msOf(max(l, run))
	}
	return msOf(l)
}

func report(opErr, fullErr error) {
	if opErr != nil {
		fmt.Println("first failure:", opErr)
	}
	if fullErr != nil {
		fmt.Println("full check failed:", fullErr)
	} else {
		fmt.Println("full check passed")
	}
}

// tracedRun measures the per-layer metrics: the ladder on the workload's
// ladder problem, then the workload's own operation with tracing on and
// off, alternately, for trace.overhead_frac.
func tracedRun(w workloadDef, seed int64, d time.Duration) (result, error) {
	opsTime := time.Duration(shareOps * float64(d))
	s, err := newSetup(w, seed, opsTime, 0.5)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	rec := newRecorder()
	v := map[string]float64{}
	in := newInputs(seed + 1)
	spec := ladderFor(w.Name)
	if w.Precision == "z" {
		err = ladder[complex128](spec, in, d, rec, v)
	} else {
		err = ladder[float64](spec, in, d, rec, v)
	}
	if err != nil {
		return result{}, err
	}
	var res result
	var plain, traced []float64
	var wrong int // failures other than refusals
	if s.closed != nil {
		deadline := time.Now().Add(opsTime)
		for i := 0; i < 4 || time.Now().Before(deadline); i++ {
			on := i%2 == 1
			s.closed.setTrace(on)
			name := "op.plain"
			if on {
				name = "op.traced"
			}
			l, err := rec.do(name, 0, func(int) error { return s.closed.op(i) })
			if err == nil {
				err = s.closed.check(i)
			}
			res.Attempted++
			if err != nil {
				res.Failed++
				wrong++
				fmt.Println("failure:", err)
				continue
			}
			if on {
				traced = append(traced, msOf(l))
			} else {
				plain = append(plain, msOf(l))
			}
		}
		s.closed.setTrace(false)
	} else {
		o := s.mix.runOpen(s.sched, rec)
		for i, q := range o.res {
			res.Attempted++
			if q.err != nil {
				res.Failed++
				if !q.refused {
					wrong++
				}
				fmt.Println("failure:", q.err)
				continue
			}
			if s.sched[i].traced {
				traced = append(traced, msOf(q.lat))
			} else {
				plain = append(plain, msOf(q.lat))
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return result{}, errors.New("no successful traced and untraced operations to compare")
	}
	res.Correct = wrong == 0
	v["trace.overhead_frac"] = median(traced)/median(plain) - 1
	fmt.Printf("trace: %d untraced and %d traced operations, p50 %.4g ms and %.4g ms\n",
		len(plain), len(traced), median(plain), median(traced))
	if err := rec.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	res.set(v, true)
	return res, nil
}
