package tune

import (
	"testing"
	"unsafe"

	"tiledqr/internal/vec"
)

// sameBits reports whether two slices hold bit-identical values.
func sameBits[T vec.Scalar](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	n := len(a) * int(unsafe.Sizeof(a[0]))
	return string(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), n)) ==
		string(unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), n))
}

// TestFixtureTimesValidInputs runs every fixture kernel many times in
// sequence, in cache (np = 1) and over a pool (np = 3), and checks that
// timing never degrades the inputs: the pristine tiles stay bit-identical
// to a freshly built fixture's, the scratch tiles hold the kernel's inputs
// after sampling, and one more call gives bit-identical outputs to the
// same call on fresh inputs.
func TestFixtureTimesValidInputs(t *testing.T) {
	t.Run("float64", testFixtureValid[float64])
	t.Run("complex128", testFixtureValid[complex128])
}

func testFixtureValid[T vec.Scalar](t *testing.T) {
	const nb, ib = 24, 8
	for _, np := range []int{1, 3} {
		fx := NewFixture[T](nb, ib, np)
		fresh := NewFixture[T](nb, ib, np)
		for round := 0; round < 2; round++ {
			for k := range NumKernels {
				fx.Median(k, 0, 5*np)
				for i := range fx.sets {
					s := &fx.sets[i]
					x1, x2 := s.sources(k)
					if !sameBits(s.x1, x1) || (x2 != nil && !sameBits(s.x2, x2)) {
						t.Fatalf("np=%d %v set %d: scratch tiles not restored after sampling", np, k, i)
					}
					fx.Call(k, i)
					fresh.Restore(k, i)
					fresh.Call(k, i)
					f := &fresh.sets[i]
					if !sameBits(s.x1, f.x1) || (x2 != nil && !sameBits(s.x2, f.x2)) || !sameBits(fx.t, fresh.t) {
						t.Fatalf("np=%d %v set %d: output differs from a call on fresh inputs", np, k, i)
					}
					fx.Restore(k, i)
				}
			}
		}
		for i := range fx.sets {
			s, f := &fx.sets[i], &fresh.sets[i]
			for name, pair := range map[string][2][]T{
				"a": {s.a, f.a}, "c1": {s.c1, f.c1}, "c2": {s.c2, f.c2},
				"r": {s.r, f.r}, "tr": {s.tr, f.tr}, "r2": {s.r2, f.r2},
				"vts": {s.vts, f.vts}, "tts": {s.tts, f.tts},
				"vtt": {s.vtt, f.vtt}, "ttt": {s.ttt, f.ttt},
			} {
				if !sameBits(pair[0], pair[1]) {
					t.Fatalf("np=%d set %d: pristine tile %s changed while timing", np, i, name)
				}
			}
		}
	}
}

// TestSampleMinCalls checks Sample honours its minimum call count with a
// zero window and runs after once per call, warm-up included.
func TestSampleMinCalls(t *testing.T) {
	calls, afters := 0, 0
	Sample(0, 7, func() { calls++ }, func() { afters++ })
	if calls != 8 || afters != 8 { // one warm-up call, then seven timed
		t.Fatalf("calls=%d afters=%d, want 8 and 8", calls, afters)
	}
}
