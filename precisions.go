package tiledqr

import "context"

// The per-precision names of the public API. Each type below is an alias of
// a generic instantiation (QR[T], Stream[T]) and each function a one-line
// forward to the generic entry point (FactorOf, FactorIntoOf, NewStreamOf),
// so the historical names and the generic ones are interchangeable. New
// capabilities land on the generic surface.

// Factorization is the float64 factorization — an alias of QR[float64].
type Factorization = QR[float64]

// Factorization32 is the float32 factorization — an alias of QR[float32].
// Single precision halves the memory traffic per flop versus double: tiles
// stay cache-resident at twice the tile size, which is where the paper's
// communication-bound update kernels gain the most. Expect residuals around
// 1e-6·‖A‖ (versus 1e-15 for Factor).
type Factorization32 = QR[float32]

// ZFactorization is the complex128 factorization — an alias of
// QR[complex128]. The paper evaluates double complex alongside double
// because complex arithmetic has a 4× higher computation-to-communication
// ratio, which favours the highly parallel TT algorithms (Section 4).
type ZFactorization = QR[complex128]

// CFactorization is the complex64 factorization — an alias of
// QR[complex64]: the memory-traffic savings of Factor32 combined with the
// higher computation-to-communication ratio of complex arithmetic. Expect
// residuals around 1e-6·‖A‖.
type CFactorization = QR[complex64]

// Factor is FactorOf[float64].
func Factor(a *Dense, opt Options) (*Factorization, error) { return FactorOf(a, opt) }

// FactorCtx is FactorOfCtx[float64].
func FactorCtx(ctx context.Context, a *Dense, opt Options) (*Factorization, error) {
	return FactorOfCtx(ctx, a, opt)
}

// FactorInto is FactorIntoOf[float64].
func FactorInto(f *Factorization, a *Dense, opt Options) error { return FactorIntoOf(f, a, opt) }

// FactorIntoCtx is FactorIntoOfCtx[float64].
func FactorIntoCtx(ctx context.Context, f *Factorization, a *Dense, opt Options) error {
	return FactorIntoOfCtx(ctx, f, a, opt)
}

// Factor32 is FactorOf[float32].
func Factor32(a *Dense32, opt Options) (*Factorization32, error) { return FactorOf(a, opt) }

// Factor32Ctx is FactorOfCtx[float32].
func Factor32Ctx(ctx context.Context, a *Dense32, opt Options) (*Factorization32, error) {
	return FactorOfCtx(ctx, a, opt)
}

// FactorInto32 is FactorIntoOf[float32].
func FactorInto32(f *Factorization32, a *Dense32, opt Options) error {
	return FactorIntoOf(f, a, opt)
}

// FactorInto32Ctx is FactorIntoOfCtx[float32].
func FactorInto32Ctx(ctx context.Context, f *Factorization32, a *Dense32, opt Options) error {
	return FactorIntoOfCtx(ctx, f, a, opt)
}

// FactorComplex is FactorOf[complex128].
func FactorComplex(a *ZDense, opt Options) (*ZFactorization, error) { return FactorOf(a, opt) }

// FactorComplexCtx is FactorOfCtx[complex128].
func FactorComplexCtx(ctx context.Context, a *ZDense, opt Options) (*ZFactorization, error) {
	return FactorOfCtx(ctx, a, opt)
}

// ZFactorInto is FactorIntoOf[complex128].
func ZFactorInto(f *ZFactorization, a *ZDense, opt Options) error { return FactorIntoOf(f, a, opt) }

// ZFactorIntoCtx is FactorIntoOfCtx[complex128].
func ZFactorIntoCtx(ctx context.Context, f *ZFactorization, a *ZDense, opt Options) error {
	return FactorIntoOfCtx(ctx, f, a, opt)
}

// CFactor is FactorOf[complex64].
func CFactor(a *CDense, opt Options) (*CFactorization, error) { return FactorOf(a, opt) }

// CFactorCtx is FactorOfCtx[complex64].
func CFactorCtx(ctx context.Context, a *CDense, opt Options) (*CFactorization, error) {
	return FactorOfCtx(ctx, a, opt)
}

// CFactorInto is FactorIntoOf[complex64].
func CFactorInto(f *CFactorization, a *CDense, opt Options) error { return FactorIntoOf(f, a, opt) }

// CFactorIntoCtx is FactorIntoOfCtx[complex64].
func CFactorIntoCtx(ctx context.Context, f *CFactorization, a *CDense, opt Options) error {
	return FactorIntoOfCtx(ctx, f, a, opt)
}

// StreamQR is the float64 stream — an alias of Stream[float64].
//
// Deprecated: use Stream[float64] (or keep using this alias; they are the
// same type). New stream capabilities land on the generic Stream.
type StreamQR = Stream[float64]

// StreamQR32 is the float32 stream — an alias of Stream[float32]: half
// the resident-state memory and memory traffic of StreamQR, at
// single-precision accuracy (~1e-6 relative).
//
// Deprecated: use Stream[float32] (or keep using this alias; they are the
// same type). New stream capabilities land on the generic Stream.
type StreamQR32 = Stream[float32]

// ZStreamQR is the complex128 stream — an alias of Stream[complex128].
//
// Deprecated: use Stream[complex128] (or keep using this alias; they are
// the same type). New stream capabilities land on the generic Stream.
type ZStreamQR = Stream[complex128]

// CStreamQR is the complex64 stream — an alias of Stream[complex64].
//
// Deprecated: use Stream[complex64] (or keep using this alias; they are
// the same type). New stream capabilities land on the generic Stream.
type CStreamQR = Stream[complex64]

// NewStream is NewStreamOf[float64].
func NewStream(n int, opt Options) (*StreamQR, error) { return NewStreamOf[float64](n, opt) }

// NewStream32 is NewStreamOf[float32].
func NewStream32(n int, opt Options) (*StreamQR32, error) { return NewStreamOf[float32](n, opt) }

// NewZStream is NewStreamOf[complex128].
func NewZStream(n int, opt Options) (*ZStreamQR, error) { return NewStreamOf[complex128](n, opt) }

// NewCStream is NewStreamOf[complex64].
func NewCStream(n int, opt Options) (*CStreamQR, error) { return NewStreamOf[complex64](n, opt) }
