package engine

import (
	"fmt"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/tile"
)

// BenchmarkApplyQ times one Qᴴ·B replay of a 4096×256 factorization (the
// tall least-squares shape, nb=128 ib=32) at right-hand-side widths on
// both sides of the micro-GEMM register width: nrhs = 1 and 3 take the
// kernels' narrow row-oriented path, nrhs = 32 the packed bulk path.
func BenchmarkApplyQ(b *testing.B) {
	const m, n = 4096, 256
	cfg := Config{Algorithm: core.Greedy, Kernels: core.TT, TileSize: 128, InnerBlock: 32, Env: Env{Workers: 1}}
	f, err := Factor(tile.RandDense[float64](m, n, 1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, nrhs := range []int{1, 3, 32} {
		b.Run(fmt.Sprintf("nrhs=%d", nrhs), func(b *testing.B) {
			rhs := tile.RandDense[float64](m, nrhs, 2)
			b.SetBytes(int64(8 * m * nrhs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Qᴴ is orthogonal, so repeated application keeps rhs bounded.
				if err := f.Apply(nil, rhs, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
