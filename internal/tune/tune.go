// Package tune is the autotuning layer behind tiledqr.AlgorithmAuto: it
// calibrates the host's sequential kernel throughput per precision with
// short micro-benchmarks, persists the calibration to a versioned on-disk
// cache, and combines it with the bounded-processor simulator of
// internal/sim to pick the predicted-fastest (algorithm, tile size, inner
// block, kernel family) for a concrete m×n shape — turning the paper's
// offline Tables 1–3 analysis into a runtime decision procedure.
//
// Calibration is lazy and per (kernel family, precision): the first Auto
// factorization in a given scalar domain measures the six kernels under the
// vec backend currently active (generic loops or the SIMD family); the
// other family is calibrated the first time Auto runs with it active. Each
// combination measures GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR at a handful of
// candidate (nb, ib) points (tens of milliseconds per point) and the
// result is cached at ~/.cache/tiledqr/calibration.json — overridable
// with the TILEDQR_CALIBRATION environment variable ("off" disables
// persistence entirely). A corrupt, truncated or schema-incompatible cache
// file is ignored and recalibrated, never an error; concurrent first uses
// are single-flighted so the micro-benchmarks run once.
//
// The package also holds the one kernel-timing harness (fixture.go):
// calibration, qrperf, qrkernels and the Figure 4–5 benchmarks all time a
// kernel the same way, on restored valid inputs, as a median per call.
package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/vec"
)

// SchemaVersion identifies the calibration file layout. Bumping it
// invalidates every cached calibration: old files are silently ignored and
// the host is re-measured. Version 2 added the kernel-family axis (points
// are stored per vec family per precision), so version-1 caches — which
// cannot say whether their numbers came from the generic or the SIMD
// backend — recalibrate on first use.
const SchemaVersion = 2

// EnvCalibration overrides the calibration cache location. Set it to a file
// path to relocate the cache, or to "off" to disable persistence (the
// calibration then lives only in process memory).
const EnvCalibration = "TILEDQR_CALIBRATION"

// calNBs are the candidate tile sizes measured during calibration and
// considered by the resolver; ib follows IBFor. The range brackets the
// paper's 80..200 guidance plus a small-tile point for latency-bound
// shapes.
var calNBs = []int{48, 64, 96, 128, 192}

// IBFor returns the default inner blocking for a tile size: nb/4 clamped to
// [4, 48] (and never above nb), the paper's ib ≈ nb/6..nb/4 regime.
func IBFor(nb int) int {
	ib := nb / 4
	if ib < 4 {
		ib = 4
	}
	if ib > 48 {
		ib = 48
	}
	if ib > nb {
		ib = nb
	}
	return ib
}

// Point is one calibrated (nb, ib) sample: sustained GFLOP/s per kernel
// (complex flops counted as four real flops, matching qrperf and the
// paper's Section 4 convention).
type Point struct {
	NB     int                `json:"nb"`
	IB     int                `json:"ib"`
	Gflops map[string]float64 `json:"gflops"`
}

// fileFormat is the on-disk calibration cache: one point list per kernel
// family per scalar domain, under a schema version.
type fileFormat struct {
	Version  int                           `json:"version"`
	Families map[string]map[string][]Point `json:"families"`
}

// calEntry single-flights the calibration of one (family, precision): the
// first caller measures (or loads), every concurrent caller blocks on the
// Once.
type calEntry struct {
	once sync.Once
	pts  []Point
}

var (
	calMu   sync.Mutex
	calBy   = map[string]*calEntry{} // "family/precision" → entry
	fileMu  sync.Mutex               // serializes read-merge-write of the cache file
	decided sync.Map                 // decKey → Candidate (per-process decision cache)
)

// measureHook, when non-nil, replaces the real micro-benchmarks — tests use
// it to make calibration instant and observable.
var measureHook func(family, prec string) []Point

// Reset drops every in-process calibration and cached decision, forcing the
// next Auto resolution to reload (or re-measure). Intended for tests and
// for recalibration tooling; it does not touch the on-disk cache.
func Reset() {
	calMu.Lock()
	calBy = map[string]*calEntry{}
	calMu.Unlock()
	decided.Range(func(k, _ any) bool {
		decided.Delete(k)
		return true
	})
}

// ForPrecision returns the calibration points of T's domain for the kernel
// family the vec primitives currently dispatch to, measuring them on first
// use under that family. Concurrent first uses are single-flighted; the
// winner persists the result best-effort (a read-only cache directory
// degrades to in-process calibration, never an error).
func ForPrecision[T vec.Scalar]() []Point {
	family := vec.ActiveFamily()
	prec := vec.DomainOf[T]().String()
	key := family + "/" + prec
	calMu.Lock()
	e := calBy[key]
	if e == nil {
		e = &calEntry{}
		calBy[key] = e
	}
	calMu.Unlock()
	e.once.Do(func() {
		if pts := loadCalibration(family, prec); pts != nil {
			e.pts = pts
			return
		}
		if measureHook != nil {
			e.pts = measureHook(family, prec)
		} else {
			e.pts = measureAll[T]()
		}
		saveCalibration(family, prec, e.pts)
	})
	return e.pts
}

// CacheLocation describes where the calibration cache lives, for tooling
// and diagnostics ("in-process only" when persistence is disabled).
func CacheLocation() string {
	path, ok := cachePath()
	if !ok {
		if os.Getenv(EnvCalibration) == "off" {
			return "in-process only ($" + EnvCalibration + "=off)"
		}
		return "in-process only (no user cache dir)"
	}
	if os.Getenv(EnvCalibration) != "" {
		return path + " ($" + EnvCalibration + ")"
	}
	return path
}

// cachePath resolves the calibration file location; ok is false when
// persistence is disabled (env "off" or no user cache directory).
func cachePath() (path string, ok bool) {
	if p := os.Getenv(EnvCalibration); p != "" {
		if p == "off" {
			return "", false
		}
		return p, true
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", false
	}
	return filepath.Join(dir, "tiledqr", "calibration.json"), true
}

// loadCalibration returns the cached points of one (family, precision), or
// nil when the file is missing, unreadable, corrupt, from another schema
// version, or holds no usable points — every failure mode means
// "recalibrate", never an error. In particular a version-1 cache (written
// before the kernel-family axis existed) fails the version check and the
// host silently re-measures.
func loadCalibration(family, prec string) []Point {
	path, ok := cachePath()
	if !ok {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f fileFormat
	if json.Unmarshal(raw, &f) != nil || f.Version != SchemaVersion {
		return nil
	}
	pts := f.Families[family][prec]
	if len(pts) == 0 {
		return nil
	}
	for _, pt := range pts {
		if pt.NB < 1 || pt.IB < 1 || pt.IB > pt.NB || len(pt.Gflops) == 0 {
			return nil
		}
		for _, g := range pt.Gflops {
			if g <= 0 {
				return nil
			}
		}
	}
	return pts
}

// saveCalibration merges one (family, precision)'s points into the cache
// file, best-effort: IO failures are ignored (the in-process copy still
// serves this run). The write is temp-file + rename so a crash never leaves
// a truncated file, and the read-merge-write is serialized so concurrent
// calibrations of different families or precisions don't drop each other.
func saveCalibration(family, prec string, pts []Point) {
	path, ok := cachePath()
	if !ok {
		return
	}
	fileMu.Lock()
	defer fileMu.Unlock()
	f := fileFormat{Version: SchemaVersion, Families: map[string]map[string][]Point{}}
	if raw, err := os.ReadFile(path); err == nil {
		var prev fileFormat
		if json.Unmarshal(raw, &prev) == nil && prev.Version == SchemaVersion && prev.Families != nil {
			f.Families = prev.Families
		}
	}
	if f.Families[family] == nil {
		f.Families[family] = map[string][]Point{}
	}
	f.Families[family][prec] = pts
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	out = append(out, '\n')
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return
	}
	tmp := path + ".tmp"
	if os.WriteFile(tmp, out, 0o644) != nil {
		return
	}
	if os.Rename(tmp, path) != nil {
		os.Remove(tmp)
	}
}

// measureAll micro-benchmarks every calibration point of one domain.
func measureAll[T vec.Scalar]() []Point {
	pts := make([]Point, 0, len(calNBs))
	for _, nb := range calNBs {
		ib := IBFor(nb)
		pts = append(pts, Point{NB: nb, IB: ib, Gflops: measurePoint[T](nb, ib)})
	}
	return pts
}

// calWindow bounds each kernel's sampling time during calibration: long
// enough to smooth timer granularity, short enough that first-use
// calibration stays well under a second per precision.
const calWindow = 8 * time.Millisecond

// measurePoint times the six kernels at a calibration budget and converts
// to GFLOP/s.
func measurePoint[T vec.Scalar](nb, ib int) map[string]float64 {
	out := make(map[string]float64, GEMM)
	for kind, s := range MeasureKernelSecs[T](nb, ib, calWindow) {
		out[kind.String()] = Gflops[T](Kernel(kind), nb, s)
	}
	return out
}

// MeasureKernelSecs returns the median seconds per call of the six Table 1
// kernels on in-cache nb×nb tiles, sampling each for the given window:
// calibration uses a short window, qrperf's experiments a longer one.
func MeasureKernelSecs[T vec.Scalar](nb, ib int, window time.Duration) map[core.Kind]float64 {
	fx := NewFixture[T](nb, ib, 1)
	sec := make(map[core.Kind]float64, GEMM)
	for k := range GEMM {
		sec[core.Kind(k)] = fx.Median(k, window, 1)
	}
	return sec
}
