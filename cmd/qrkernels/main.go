// Command qrkernels regenerates Figures 4 and 5 of the paper: sequential
// kernel performance (GFLOP/s) versus tile size, in cache and out of cache,
// per precision.
//
// The comparison of interest: a TT algorithm calls GEQRT+TTQRT where a TS
// algorithm calls one TSQRT (and UNMQR+TTMQR versus one TSMQR), so the
// figures report those pairs side by side, plus GEMM as the roofline
// reference. The paper's MKL kernels show a ratio TSQRT/(GEQRT+TTQRT) of
// about 1.32–1.34; the pure-Go kernels here show the same locality effect
// with their own constant.
//
// In-cache follows the No-Flush strategy (repeatedly time the same tiles);
// out-of-cache cycles over a working set larger than the last-level cache
// (MultCallFlushLRU), per Whaley & Castaldo [17] and Agullo et al. [1].
// Both run on internal/tune's kernel-timing fixture: every call is timed
// alone on restored valid inputs and each figure is the median per call.
//
// The paper's figures use double (d) and double complex (z); -prec also
// accepts the single-precision pair (s, c) the generic kernels open up.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"
	"unsafe"

	"tiledqr/internal/core"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

var (
	flagIB     = flag.Int("ib", 32, "inner blocking")
	flagSizes  = flag.String("sizes", "100,200,300,400,500,600", "tile sizes to sweep")
	flagCache  = flag.Int("cachemb", 8, "assumed last-level cache size (MB) for the out-of-cache working set")
	flagReps   = flag.Int("minreps", 3, "minimum repetitions per measurement")
	flagPrec   = flag.String("prec", "z,d", "comma-separated precisions to sweep: d, z, s, c")
	flagFamily = flag.String("family", "", "pin the vec kernel family (generic|simd); default: the best available on this host")
)

// flops per kernel call at tile size nb, real arithmetic, from the Table 1
// weights (units of nb³/3).
func kernelFlops(weight, nb int) float64 {
	return float64(weight) * float64(nb) * float64(nb) * float64(nb) / 3
}

func main() {
	flag.Parse()
	if *flagFamily != "" {
		if err := vec.SetFamily(*flagFamily); err != nil {
			fmt.Fprintln(os.Stderr, "qrkernels:", err)
			os.Exit(2)
		}
	}
	fam := vec.ActiveFamily()
	if isa := vec.SIMDName(); isa != "" && fam == vec.FamilySIMD {
		fam += " (" + isa + ")"
	}
	fmt.Printf("kernel family: %s\n", fam)
	var sizes []int
	for _, s := range splitComma(*flagSizes) {
		var v int
		fmt.Sscanf(s, "%d", &v)
		if v > 0 {
			sizes = append(sizes, v)
		}
	}
	for _, prec := range splitComma(*flagPrec) {
		switch prec {
		case "d":
			sweep[float64]("Figure 5", "double", sizes)
		case "z":
			sweep[complex128]("Figure 4", "double complex", sizes)
		case "s":
			sweep[float32]("(single)", "single", sizes)
		case "c":
			sweep[complex64]("(single complex)", "single complex", sizes)
		default:
			fmt.Fprintf(os.Stderr, "unknown precision %q (want d, z, s or c)\n", prec)
			os.Exit(2)
		}
	}
	fmt.Println("\nratio = TS kernel speed over the equivalent TT pair (the paper's MKL kernels: ≈1.32)")
}

func sweep[T vec.Scalar](figure, prec string, sizes []int) {
	fmt.Printf("\n%s: sequential kernel GFLOP/s, %s precision (ib=%d)\n", figure, prec, *flagIB)
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "nb\tcache\tGEQRT\tTTQRT\tGEQRT+TTQRT\tTSQRT\tratio\tUNMQR\tTTMQR\tUNMQR+TTMQR\tTSMQR\tratio\tGEMM\t")
	for _, nb := range sizes {
		for _, out := range []bool{false, true} {
			r := measureRow[T](nb, *flagIB, out)
			loc := "in"
			if out {
				loc = "out"
			}
			fmt.Fprintf(w, "%d\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
				nb, loc, r.geqrt, r.ttqrt, r.pairFactor, r.tsqrt, r.tsqrt/r.pairFactor,
				r.unmqr, r.ttmqr, r.pairUpdate, r.tsmqr, r.tsmqr/r.pairUpdate, r.gemm)
		}
	}
	w.Flush()
}

type row struct {
	geqrt, ttqrt, tsqrt, unmqr, ttmqr, tsmqr, gemm float64
	pairFactor, pairUpdate                         float64
}

// measureRow measures every kernel at one tile size on the shared timing
// fixture. For out-of-cache runs the fixture's pool of tile sets exceeds
// the configured cache size so that each call starts from cold tiles.
func measureRow[T vec.Scalar](nb, ib int, outOfCache bool) row {
	var z T
	np := 1
	if outOfCache {
		bytesPerSet := 4 * nb * nb * int(unsafe.Sizeof(z)) // the ~4 tiles a call touches
		np = (*flagCache)*1024*1024/bytesPerSet + 2
	}
	fx := tune.NewFixture[T](nb, ib, np)
	gflops := func(k tune.Kernel) float64 {
		return tune.Gflops[T](k, nb, fx.Median(k, 200*time.Millisecond, *flagReps))
	}
	r := row{
		geqrt: gflops(tune.Kernel(core.KGEQRT)),
		unmqr: gflops(tune.Kernel(core.KUNMQR)),
		tsqrt: gflops(tune.Kernel(core.KTSQRT)),
		tsmqr: gflops(tune.Kernel(core.KTSMQR)),
		ttqrt: gflops(tune.Kernel(core.KTTQRT)),
		ttmqr: gflops(tune.Kernel(core.KTTMQR)),
		gemm:  gflops(tune.GEMM),
	}
	// A TT algorithm needs GEQRT+TTQRT to do one TSQRT's job: aggregate
	// rate = combined flops / combined time.
	fG, fT2 := kernelFlops(4, nb), kernelFlops(2, nb)
	r.pairFactor = (fG + fT2) / (fG/r.geqrt + fT2/r.ttqrt)
	fU, fTT := kernelFlops(6, nb), kernelFlops(6, nb)
	r.pairUpdate = (fU + fTT) / (fU/r.unmqr + fTT/r.ttmqr)
	return r
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
