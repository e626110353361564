package tiledqr

import (
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"tiledqr/internal/tune"
)

// isolateCalibration points the calibration cache at a per-test temp file,
// so `go test` never reads the developer's real cache (test outcomes must
// not depend on it) and never overwrites it with figures measured on a
// test-loaded machine. The in-process calibration survives across tests, so
// the kernels are micro-benchmarked at most once per test binary.
func isolateCalibration(t *testing.T) {
	t.Helper()
	t.Setenv(tune.EnvCalibration, filepath.Join(t.TempDir(), "calibration.json"))
}

// The autotuning acceptance suite: AlgorithmAuto must resolve to a
// concrete, stable tuple; factoring with Auto must be bit-for-bit the
// factorization of the resolved options; streams and every precision must
// accept Auto; and (in long mode, without the race detector) Auto's
// measured time must sit inside the envelope of the fixed algorithms.

func TestAutoResolveIsConcreteAndStable(t *testing.T) {
	isolateCalibration(t)
	auto := Options{Algorithm: AlgorithmAuto}
	r1, err := auto.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Algorithm == AlgorithmAuto {
		t.Fatal("Resolve left AlgorithmAuto unresolved")
	}
	if r1.TileSize < 1 || r1.InnerBlock < 1 || r1.InnerBlock > r1.TileSize {
		t.Fatalf("Resolve produced invalid sizes: %+v", r1)
	}
	r2, err := auto.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("Resolve not stable: %+v vs %+v", r1, r2)
	}

	// Pins survive resolution.
	pinned, err := Options{Algorithm: AlgorithmAuto, TileSize: 100, InnerBlock: 25}.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.TileSize != 100 || pinned.InnerBlock != 25 {
		t.Fatalf("pinned sizes not honored: %+v", pinned)
	}

	// Non-auto options just get defaults.
	fixed, err := Options{Algorithm: Fibonacci}.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Algorithm != Fibonacci || fixed.TileSize != DefaultTileSize {
		t.Fatalf("non-auto Resolve changed the options: %+v", fixed)
	}

	// Invalid pins are rejected, same as explicit options.
	if _, err := (Options{Algorithm: AlgorithmAuto, TileSize: 16, InnerBlock: 32}).Resolve(300, 200); err == nil {
		t.Fatal("Resolve accepted InnerBlock > pinned TileSize")
	}
	if _, err := auto.Resolve(0, 5); err == nil {
		t.Fatal("Resolve accepted an empty shape")
	}
}

// TestAutoMatchesResolvedBitForBit is the core acceptance check: Factor
// with AlgorithmAuto and zero nb/ib is the same computation as Factor with
// the hand-picked resolved tuple — identical bits in R and in Qᵀb.
func TestAutoMatchesResolvedBitForBit(t *testing.T) {
	isolateCalibration(t)
	const m, n = 200, 120
	auto := Options{Algorithm: AlgorithmAuto}
	resolved, err := auto.Resolve(m, n)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomDense(m, n, 3)
	fa, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Factor(a, resolved)
	if err != nil {
		t.Fatal(err)
	}
	ra, rr := fa.R(), fr.R()
	for i := 0; i < ra.Rows; i++ {
		for j := 0; j < ra.Cols; j++ {
			if ra.At(i, j) != rr.At(i, j) {
				t.Fatalf("R differs at (%d,%d): auto %v vs resolved %v", i, j, ra.At(i, j), rr.At(i, j))
			}
		}
	}
	ba, br := RandomDense(m, 2, 9), RandomDense(m, 2, 9)
	if err := fa.ApplyQT(ba); err != nil {
		t.Fatal(err)
	}
	if err := fr.ApplyQT(br); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < 2; j++ {
			if ba.At(i, j) != br.At(i, j) {
				t.Fatalf("QᵀB differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestAutoFactorIntoReuses checks the serving path: repeated FactorInto
// with Auto resolves to the same tuple every time (the engine reuse key is
// the resolved tuple, so the arena/DAG/plan are reused) and keeps producing
// the same bits.
func TestAutoFactorIntoReuses(t *testing.T) {
	isolateCalibration(t)
	const m, n = 200, 120
	auto := Options{Algorithm: AlgorithmAuto}
	a := RandomDense(m, n, 3)
	ref, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	refR := ref.R()
	var f Factorization
	for round := 0; round < 3; round++ {
		if err := FactorInto(&f, a, auto); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		r := f.R()
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < r.Cols; j++ {
				if r.At(i, j) != refR.At(i, j) {
					t.Fatalf("round %d: R differs at (%d,%d)", round, i, j)
				}
			}
		}
	}
	// Refactor keeps serving the resolved configuration too.
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	if r := f.R(); r.At(0, 0) != refR.At(0, 0) {
		t.Fatal("Refactor after Auto diverged")
	}
}

// TestAutoAllPrecisions exercises Auto through every public entry point;
// the two 64-bit domains must agree on |R| for real-valued data (they may
// legitimately resolve different tuples — R is unique up to row signs).
func TestAutoAllPrecisions(t *testing.T) {
	isolateCalibration(t)
	const m, n = 96, 64
	auto := Options{Algorithm: AlgorithmAuto}
	a := RandomDense(m, n, 5)

	fd, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	za := NewZDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			za.Set(i, j, complex(a.At(i, j), 0))
		}
	}
	fz, err := FactorComplex(za, auto)
	if err != nil {
		t.Fatal(err)
	}
	rd, rz := fd.R(), fz.R()
	for i := 0; i < rd.Rows; i++ {
		for j := 0; j < rd.Cols; j++ {
			if d := math.Abs(math.Abs(rd.At(i, j)) - real(complexAbs(rz.At(i, j)))); d > 1e-8 {
				t.Fatalf("|R| disagrees across domains at (%d,%d): %g", i, j, d)
			}
		}
	}

	s := NewDense32(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, float32(a.At(i, j)))
		}
	}
	if _, err := Factor32(s, auto); err != nil {
		t.Fatal(err)
	}
	c := NewCDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, complex(float32(a.At(i, j)), 0))
		}
	}
	if _, err := CFactor(c, auto); err != nil {
		t.Fatal(err)
	}
}

func complexAbs(z complex128) complex128 {
	return complex(math.Hypot(real(z), imag(z)), 0)
}

// TestAutoStream checks streams pick a tile shape under Auto and still
// reproduce the one-shot R over the same rows.
func TestAutoStream(t *testing.T) {
	isolateCalibration(t)
	const n, rows = 100, 150
	auto := Options{Algorithm: AlgorithmAuto}
	st, err := NewStream(n, auto)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomDense(rows, n, 11)
	// Append in two ragged batches.
	copyRows := func(lo, hi int) *Dense {
		b := NewDense(hi-lo, n)
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				b.Set(i-lo, j, a.At(i, j))
			}
		}
		return b
	}
	if err := st.AppendRows(copyRows(0, 70)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRows(copyRows(70, rows)); err != nil {
		t.Fatal(err)
	}
	f, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := st.R()
	if err != nil {
		t.Fatal(err)
	}
	rf := f.R()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if d := math.Abs(math.Abs(rs.At(i, j)) - math.Abs(rf.At(i, j))); d > 1e-10 {
				t.Fatalf("stream R disagrees with one-shot at (%d,%d): %g", i, j, d)
			}
		}
	}
	if _, err := NewCStream(64, auto); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStream32(64, auto); err != nil {
		t.Fatal(err)
	}
	if _, err := NewZStream(64, auto); err != nil {
		t.Fatal(err)
	}
	// Invalid pins error under Auto exactly as they do with explicit
	// options — no silent clamping.
	if _, err := NewStream(64, Options{Algorithm: AlgorithmAuto, TileSize: 16, InnerBlock: 32}); err == nil {
		t.Error("NewStream accepted InnerBlock > pinned TileSize under Auto")
	}
}

// TestAutoAnalysisGuards: the analysis API rejects the Auto placeholder
// with a descriptive error instead of a core-layer failure.
func TestAutoAnalysisGuards(t *testing.T) {
	if _, err := EliminationList(AlgorithmAuto, 4, 2, Options{}); err == nil {
		t.Error("EliminationList accepted AlgorithmAuto")
	}
	if _, err := CriticalPath(AlgorithmAuto, 4, 2, Options{}); err == nil {
		t.Error("CriticalPath accepted AlgorithmAuto")
	}
	if _, err := ZeroTimes(AlgorithmAuto, 4, 2, Options{}); err == nil {
		t.Error("ZeroTimes accepted AlgorithmAuto")
	}
	if _, err := SimulateWorkers(AlgorithmAuto, 4, 2, 2, Options{}); err == nil {
		t.Error("SimulateWorkers accepted AlgorithmAuto")
	}
	if AlgorithmAuto.String() != "Auto" {
		t.Errorf("AlgorithmAuto.String() = %q", AlgorithmAuto.String())
	}
}

// factorTime returns the wall-clock seconds of one factorization. It
// collects the previous samples' garbage first, so a GC cycle they
// triggered is not charged to this one.
func factorTime(t *testing.T, a *Dense, opt Options) float64 {
	t.Helper()
	runtime.GC()
	start := time.Now()
	if _, err := Factor(a, opt); err != nil {
		t.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// TestAutoWithinEnvelope is the measured acceptance criterion: on
// representative shapes, Auto's wall time is never worse than the worst
// fixed algorithm at the same (nb, ib, kernels), and within 15% of the best
// fixed choice on this host. Wall-clock assertions are inherently noisy, so
// each algorithm and Auto are sampled in alternating rounds — a slow spell
// of the host hits every candidate alike — and compared by their medians,
// which one outlier cannot move. The test skips under -short and the race
// detector.
func TestAutoWithinEnvelope(t *testing.T) {
	isolateCalibration(t)
	if testing.Short() {
		t.Skip("wall-clock envelope check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock envelope check skipped under the race detector")
	}
	const rounds = 15
	shapes := [][2]int{{256, 128}, {192, 192}}
	for _, s := range shapes {
		m, n := s[0], s[1]
		auto := Options{Algorithm: AlgorithmAuto}
		resolved, err := auto.Resolve(m, n) // also warms calibration before any timing
		if err != nil {
			t.Fatal(err)
		}
		a := RandomDense(m, n, 17)
		// Candidate i is Algorithms[i] at Auto's resolved sizes; the last
		// one is Auto itself. Each round starts one candidate later, so no
		// candidate always runs first or last.
		cands := make([]Options, 0, len(Algorithms)+1)
		for _, alg := range Algorithms {
			cands = append(cands, Options{Algorithm: alg, Kernels: resolved.Kernels,
				TileSize: resolved.TileSize, InnerBlock: resolved.InnerBlock})
		}
		cands = append(cands, auto)
		samples := make([][]float64, len(cands))
		for r := 0; r < rounds; r++ {
			for j := range cands {
				i := (r + j) % len(cands)
				samples[i] = append(samples[i], factorTime(t, a, cands[i]))
			}
		}
		best, worst := math.Inf(1), 0.0
		var bestAlg, worstAlg Algorithm
		for i, alg := range Algorithms {
			sec := median(samples[i])
			if sec < best {
				best, bestAlg = sec, alg
			}
			if sec > worst {
				worst, worstAlg = sec, alg
			}
		}
		autoT := median(samples[len(Algorithms)])
		t.Logf("%d×%d (auto → %v nb=%d ib=%d %v), medians of %d: auto %.2fms, best %v %.2fms, worst %v %.2fms",
			m, n, resolved.Algorithm, resolved.TileSize, resolved.InnerBlock, resolved.Kernels, rounds,
			autoT*1e3, bestAlg, best*1e3, worstAlg, worst*1e3)
		if autoT > worst*1.05 || autoT > best*1.15 {
			t.Errorf("%d×%d: auto %.2fms outside envelope [best %v %.2fms ×1.15, worst %v %.2fms ×1.05]",
				m, n, autoT*1e3, bestAlg, best*1e3, worstAlg, worst*1e3)
		}
	}
}
