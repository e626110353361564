package sched

import (
	"runtime"
	"testing"
	"time"

	"tiledqr/internal/core"
)

// BenchmarkRunDispatch measures pure runtime dispatch cost per task (empty
// kernels) at several worker counts.
func BenchmarkRunDispatch(b *testing.B) {
	d := core.BuildDAG(core.GreedyList(20, 10), core.TT)
	for _, workers := range []int{2, 4} {
		b.Run(map[int]string{2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runDAG(d, workers, Options{}, func(int32, int) {}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumTasks()), "ns/task")
		})
	}
}

// BenchmarkRunWeightedDAG emulates a factorization: each task spins for a
// duration proportional to its Table 1 weight, so the measured makespan
// reflects how well the scheduler overlaps the critical path — the paper's
// §2 scheduling experiment in miniature.
func BenchmarkRunWeightedDAG(b *testing.B) {
	d := core.BuildDAG(core.GreedyList(16, 8), core.TT)
	const unit = 2 * time.Microsecond
	busy := func(task int32, _ int) {
		deadline := time.Now().Add(time.Duration(d.Tasks[task].Kind.Weight()) * unit)
		for time.Now().Before(deadline) {
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := runDAG(d, runtime.GOMAXPROCS(0), Options{}, busy); err != nil {
			b.Fatal(err)
		}
	}
}
