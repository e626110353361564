package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// runRecord is one --trace 0 run parsed back from its output.
type runRecord struct {
	host     HostInfo
	workload string
	res      result
}

// parseRuns reads a file holding the standard output of one or more runs,
// one after another, and returns the end-to-end runs in it.
func parseRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	var cur runRecord
	var traced bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "fingerprint "):
			var fp Fingerprint
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "fingerprint ")), &fp); err != nil {
				return nil, fmt.Errorf("%s: fingerprint: %w", path, err)
			}
			cur = runRecord{host: fp.Host}
		case strings.HasPrefix(line, "workload "):
			var seed, secs int64
			var trace int
			if _, err := fmt.Sscanf(line, "workload %s seed %d seconds %d trace %d:", &cur.workload, &seed, &secs, &trace); err != nil {
				return nil, fmt.Errorf("%s: %q: %w", path, line, err)
			}
			traced = trace == 1
		case strings.HasPrefix(line, "{"):
			if cur.workload == "" {
				return nil, fmt.Errorf("%s: a result line without its run header", path)
			}
			if err := json.Unmarshal([]byte(line), &cur.res); err != nil {
				return nil, fmt.Errorf("%s: result: %w", path, err)
			}
			if !traced {
				out = append(out, cur)
			}
			cur = runRecord{}
		}
	}
	return out, sc.Err()
}

// compareCmd gates a head set of runs against a base set: for every
// workload and end-to-end metric, head's median may be worse than base's
// by at most the metric's bound. It refuses to compare runs whose host
// fingerprints differ. Exit codes: 0 no regression, 1 regression or a
// failed run, 2 usage error or incomparable hosts.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE HEAD (each a file of concatenated run outputs)")
		return 2
	}
	base, err := parseRuns(args[0])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s holds no end-to-end run", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	head, err := parseRuns(args[1])
	if err == nil && len(head) == 0 {
		err = fmt.Errorf("%s holds no end-to-end run", args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ref := base[0].host
	for _, r := range append(base[1:], head...) {
		if !ref.equal(r.host) {
			fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts:\n  %+v\n  %+v\n", ref, r.host)
			return 2
		}
	}
	code := 0
	for _, w := range workloads {
		b, h := byWorkload(base, w.Name), byWorkload(head, w.Name)
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, runs := range [][]runRecord{b, h} {
			for _, r := range runs {
				if !r.res.Correct {
					fmt.Printf("%s: a run reported incorrect results\n", w.Name)
					code = 1
				}
			}
		}
		for _, m := range endToEnd {
			bm, hm := metricMedian(b, m.Name), metricMedian(h, m.Name)
			worse := (hm - bm) / bm
			if m.Better == "higher" {
				worse = (bm - hm) / bm
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("%-14s %-20s base %12.6g  head %12.6g %-8s worse by %+7.2f%% (bound %.0f%%)  %s\n",
				w.Name, m.Name, bm, hm, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}

func byWorkload(runs []runRecord, name string) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if r.workload == name {
			out = append(out, r)
		}
	}
	return out
}

func metricMedian(runs []runRecord, name string) float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.res.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return median(xs)
}
