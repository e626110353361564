package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tiledqr"
	"tiledqr/internal/serve"
)

// serve_mixed's traffic: solves against one shared design matrix (so they
// can coalesce) and factorizations of distinct matrices.
const (
	serveFactorM, serveFactorN = 256, 64
	serveSolveM, serveSolveN   = 256, 32
	serveSolveShare            = 2.0 / 3
	// servePool is how many distinct bodies of each kind are encoded at
	// set-up; arrivals pick one at random.
	servePool = 24
)

// serveSenders is the number of goroutines issuing requests: never more
// than the host has processors, and two at most.
func serveSenders() int { return min(2, runtime.NumCPU()) }

func wireOptions() *serve.WireOptions {
	return &serve.WireOptions{Algorithm: "greedy", Kernels: "tt", TileSize: tileNB, InnerBlock: tileIB}
}

type factorBody struct {
	Precision string             `json:"precision"`
	Matrix    *serve.Matrix      `json:"matrix"`
	Options   *serve.WireOptions `json:"options"`
}

type solveBody struct {
	Precision string             `json:"precision"`
	Matrix    *serve.Matrix      `json:"matrix"`
	RHS       *serve.Matrix      `json:"rhs"`
	Options   *serve.WireOptions `json:"options"`
}

// toWire encodes a matrix in the wire form: row-major values, complex
// entries as interleaved real and imaginary parts.
func toWire[T scalar](m *tiledqr.Mat[T]) *serve.Matrix {
	w := &serve.Matrix{Rows: m.Rows, Cols: m.Cols}
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Data[i*m.Stride : i*m.Stride+m.Cols] {
			if c, ok := any(v).(complex128); ok {
				w.Data = append(w.Data, real(c), imag(c))
			} else {
				w.Data = append(w.Data, any(v).(float64))
			}
		}
	}
	return w
}

func fromWire[T scalar](w *serve.Matrix) (*tiledqr.Mat[T], error) {
	if w == nil {
		return nil, errors.New("reply has no matrix")
	}
	per := 1
	if isComplex[T]() {
		per = 2
	}
	if w.Rows < 1 || w.Cols < 1 || len(w.Data) != per*w.Rows*w.Cols {
		return nil, fmt.Errorf("reply matrix %d×%d has %d values", w.Rows, w.Cols, len(w.Data))
	}
	m := tiledqr.NewMat[T](w.Rows, w.Cols)
	for k := range m.Data {
		if per == 2 {
			m.Data[k] = any(complex(w.Data[2*k], w.Data[2*k+1])).(T)
		} else {
			m.Data[k] = any(w.Data[k]).(T)
		}
	}
	return m, nil
}

func precisionOf[T scalar]() string {
	if isComplex[T]() {
		return "z"
	}
	return "d"
}

// serveMix holds one server and every request body of a run, encoded at
// set-up so the timed loop only sends.
type serveMix[T scalar] struct {
	srv *serve.Server
	h   http.Handler

	factA     []*tiledqr.Mat[T]
	factNorm  []float64
	factProbe [][]T
	factBody  [][]byte

	solveA    *tiledqr.Mat[T]
	solveNorm float64
	solveB    []*tiledqr.Mat[T]
	solveBody [][]byte
}

func newServeMix[T scalar](in *inputs) (*serveMix[T], error) {
	s := &serveMix[T]{}
	prec := precisionOf[T]()
	for k := 0; k < servePool; k++ {
		a := randMat[T](in, serveFactorM, serveFactorN)
		body, err := json.Marshal(factorBody{prec, toWire(a), wireOptions()})
		if err != nil {
			return nil, err
		}
		s.factA = append(s.factA, a)
		s.factNorm = append(s.factNorm, frob(a))
		s.factProbe = append(s.factProbe, randMat[T](in, serveFactorN, 1).Data)
		s.factBody = append(s.factBody, body)
	}
	s.solveA = randMat[T](in, serveSolveM, serveSolveN)
	s.solveNorm = frob(s.solveA)
	wa := toWire(s.solveA)
	for k := 0; k < servePool; k++ {
		b := randMat[T](in, serveSolveM, 1)
		body, err := json.Marshal(solveBody{prec, wa, toWire(b), wireOptions()})
		if err != nil {
			return nil, err
		}
		s.solveB = append(s.solveB, b)
		s.solveBody = append(s.solveBody, body)
	}
	s.srv = serve.New(serve.Config{Runtime: tiledqr.DefaultRuntime()})
	s.h = s.srv.Handler()
	// Warm-up: one request of each kind.
	for _, factor := range []bool{true, false} {
		if r := s.send(arrival{factor: factor}, time.Now(), nil); r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return s, nil
}

// arrival is one scheduled request.
type arrival struct {
	due    time.Duration // since the start of the loop
	factor bool
	body   int
	traced bool // record a span around the handler call
}

// schedule draws the arrivals of a Poisson process at rate per second over
// d, conditioned on its expected count: round(rate·d) arrival times drawn
// uniformly over d, of which a fixed serveSolveShare are solves. Seeds then
// differ in when requests arrive and what they carry, not in how much load
// they offer.
func (s *serveMix[T]) schedule(in *inputs, rate float64, d time.Duration, tracedShare float64) []arrival {
	n := int(math.Round(rate * d.Seconds()))
	out := make([]arrival, n)
	times := make([]float64, n)
	for i := range times {
		times[i] = in.rng.Float64() * float64(d)
	}
	sort.Float64s(times)
	factors := n - int(math.Round(serveSolveShare*float64(n)))
	kinds := in.rng.Perm(n)
	for i := range out {
		out[i] = arrival{
			due:    time.Duration(times[i]),
			factor: kinds[i] < factors,
			body:   in.rng.Intn(servePool),
			traced: in.rng.Float64() < tracedShare,
		}
	}
	return out
}

// reqResult is the outcome of one request.
type reqResult struct {
	lat     time.Duration // from the due time to the handler's return
	lag     time.Duration // how late the sender started it
	handler time.Duration // the handler call alone
	refused bool          // 429 or 503
	bad     bool          // a 200 reply that failed its check
	err     error         // any failure, refusals included
	rows    float64
	flops   float64
}

// send issues one request, due at due, and checks the reply. rec, when
// non-nil and the arrival is traced, records a span around the handler.
func (s *serveMix[T]) send(a arrival, due time.Time, rec *recorder) reqResult {
	path, body := "/v1/solve", s.solveBody[a.body]
	if a.factor {
		path, body = "/v1/factor", s.factBody[a.body]
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	start := time.Now()
	if rec != nil && a.traced {
		rec.do("serve.handler"+path, 0, func(int) error { s.h.ServeHTTP(rw, req); return nil })
	} else {
		s.h.ServeHTTP(rw, req)
	}
	end := time.Now()
	r := reqResult{lat: end.Sub(due), lag: start.Sub(due), handler: end.Sub(start)}
	switch rw.Code {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.refused = true
		r.err = fmt.Errorf("%s refused with %d", path, rw.Code)
		return r
	default:
		r.err = fmt.Errorf("%s: HTTP %d: %s", path, rw.Code, rw.Body.String())
		return r
	}
	if err := s.checkReply(a, rw.Body.Bytes()); err != nil {
		r.bad = true
		r.err = fmt.Errorf("%s: %w", path, err)
		return r
	}
	if a.factor {
		r.rows, r.flops = serveFactorM, qrFlops[T](serveFactorM, serveFactorN)
	} else {
		r.rows, r.flops = serveSolveM, qrFlops[T](serveSolveM, serveSolveN)
	}
	return r
}

func (s *serveMix[T]) checkReply(a arrival, body []byte) error {
	var reply struct {
		R *serve.Matrix `json:"r"`
		X *serve.Matrix `json:"x"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if a.factor {
		r, err := fromWire[T](reply.R)
		if err != nil {
			return err
		}
		return checkGram(s.factA[a.body], s.factNorm[a.body], r, s.factProbe[a.body])
	}
	x, err := fromWire[T](reply.X)
	if err != nil {
		return err
	}
	return checkLS([]rowBlock[T]{{s.solveA, s.solveB[a.body]}}, s.solveNorm, x)
}

// statsz reads the server's /statsz.
func (s *serveMix[T]) statsz() (serve.Statsz, error) {
	var st serve.Statsz
	rw := httptest.NewRecorder()
	s.h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rw.Code != http.StatusOK {
		return st, fmt.Errorf("/statsz: HTTP %d", rw.Code)
	}
	return st, json.Unmarshal(rw.Body.Bytes(), &st)
}

// spinWindow is how long before a request is due its sender stops
// sleeping and polls the clock: waking from a sleep can take longer than
// this on a loaded virtual machine, and that lateness would be the
// generator's, not the server's.
const spinWindow = time.Millisecond

func waitUntil(due time.Time) {
	time.Sleep(time.Until(due) - spinWindow)
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openResult is what one open-loop run measured.
type openResult struct {
	res   []reqResult // index-aligned with the schedule
	wall  time.Duration
	alloc uint64
}

// runOpen sends the schedule with at most serveSenders goroutines: a sender
// takes the next arrival, sleeps until it is due, and sends it; arrivals
// due while every sender is busy wait, and that wait counts in their
// latency.
func (s *serveMix[T]) runOpen(sched []arrival, rec *recorder) openResult {
	out := openResult{res: make([]reqResult, len(sched))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < serveSenders(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				waitUntil(due)
				out.res[i] = s.send(sched[i], due, rec)
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return out
}

// fullCheck re-sends factor body sample (modulo the pool) after the timed
// loop and checks the served R in full against AᴴA.
func (s *serveMix[T]) fullCheck(sample int) error {
	a := arrival{factor: true, body: sample % servePool}
	path, body := "/v1/factor", s.factBody[a.body]
	rw := httptest.NewRecorder()
	s.h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rw.Code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, rw.Code)
	}
	var reply struct {
		R *serve.Matrix `json:"r"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &reply); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	r, err := fromWire[T](reply.R)
	if err != nil {
		return err
	}
	return checkGramFull(s.factA[a.body], r)
}
