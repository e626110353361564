package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tiledqr"
)

// perturbed wraps a workload and nudges every solution it returns by a
// relative 1e-6 — far below anything a reader of the numbers would notice,
// far above the backward-error bound.
type perturbed struct{ *factorLS[float64] }

func (p perturbed) op(i int) error {
	if err := p.factorLS.op(i); err != nil {
		return err
	}
	p.x.Data[0] *= 1 + 1e-6
	return nil
}

func TestPerturbedSolutionCountsAsFailed(t *testing.T) {
	w, err := newFactorLS[float64](7, 512, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	good, err := runClosed(w, 200*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if good.attempted == 0 || good.failed != 0 {
		t.Fatalf("unperturbed run: %d of %d failed (%v)", good.failed, good.attempted, good.firstErr)
	}
	if err := w.fullCheck(); err != nil {
		t.Fatalf("unperturbed full check: %v", err)
	}
	bad, err := runClosed(perturbed{w}, 200*time.Millisecond, -1)
	if err != nil {
		t.Fatal(err)
	}
	if bad.attempted == 0 || bad.failed != bad.attempted || bad.badResult != bad.attempted {
		t.Fatalf("perturbed run: %d of %d failed, %d wrong results; want all", bad.failed, bad.attempted, bad.badResult)
	}
}

func TestFullChecksRejectPerturbedFactors(t *testing.T) {
	a := tiledqr.RandomMat[complex128](300, 40, 3)
	f, err := tiledqr.FactorComplex(a, pinned())
	if err != nil {
		t.Fatal(err)
	}
	q, r := f.ThinQ(), f.R()
	if err := checkQR(a, q, r); err != nil {
		t.Fatalf("exact factors: %v", err)
	}
	if err := checkGramFull(a, r); err != nil {
		t.Fatalf("exact R, Gram check: %v", err)
	}
	probe := tiledqr.RandomMat[complex128](40, 1, 4).Data
	if err := checkGram(a, frob(a), r, probe); err != nil {
		t.Fatalf("exact R, probe check: %v", err)
	}
	if err := checkSameR(r, r); err != nil {
		t.Fatalf("R against itself: %v", err)
	}
	r2 := r.Clone()
	r2.Data[r2.Stride+5] += 1e-7
	q2 := q.Clone()
	q2.Data[17] += 1e-7
	b := tiledqr.RandomMat[complex128](300, 1, 5)
	for name, err := range map[string]error{
		"checkLS(short x)": checkLS([]rowBlock[complex128]{{a, b}}, frob(a), tiledqr.NewMat[complex128](3, 1)),
		"checkQR(Q)":       checkQR(a, q2, r),
		"checkQR(R)":       checkQR(a, q, r2),
		"checkGramFull":    checkGramFull(a, r2),
		"checkGram":        checkGram(a, frob(a), r2, probe),
		"checkSameR":       checkSameR(r2, r),
	} {
		if err == nil {
			t.Errorf("%s accepted a perturbed factor", name)
		}
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := newInputs(5), newInputs(5)
	x, y := randMat[float64](a, 8, 3), randMat[float64](b, 8, 3)
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatal("same seed gave different inputs")
		}
	}
	if c := randMat[float64](newInputs(6), 8, 3); c.Data[0] == x.Data[0] {
		t.Fatal("different seeds gave the same input")
	}
}

// TestManifestsCommitted keeps BENCHMARK.json and layers.json in step with
// spec.go and within the limits the benchmark's contract sets.
func TestManifestsCommitted(t *testing.T) {
	bench, layerDoc, err := manifests()
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{"../BENCHMARK.json": bench, "layers.json": layerDoc} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: run `bash perfbench/run.sh manifest` from the repository root", filepath.Base(path))
		}
	}
	var b benchmarkFile
	if err := json.Unmarshal(bench, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	runs := 4 + 22*len(b.Workloads)
	if perRun := 3420 / runs; b.RunSeconds+4 > perRun {
		t.Errorf("%d runs of %d s do not fit the time budget", runs, b.RunSeconds)
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(file, cpu string) string {
		fp, _ := json.Marshal(Fingerprint{Host: HostInfo{CPU: cpu, NProc: 2}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}})
		path := filepath.Join(dir, file)
		body := "fingerprint " + string(fp) + "\nworkload tall_ls seed 1 seconds 1 trace 0: op\n" + string(res) + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a", "cpu A"), write("b", "cpu B")
	if code := compareCmd([]string{a, b}); code != 2 {
		t.Fatalf("compare across hosts exited %d, want 2", code)
	}
}
