package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share their root's ID as Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory; they are written out
// when the run ends. It is safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	last  int // the last span ID handed out
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times fn as a span named name under parent. fn gets the span's ID to
// parent the spans of its own calls; do returns the span's duration.
func (r *recorder) do(name string, parent int, fn func(id int) error) (time.Duration, error) {
	r.mu.Lock()
	r.last++
	id := r.last
	r.mu.Unlock()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{id, parent, name, int64(start.Sub(r.t0)), int64(end.Sub(r.t0))})
	r.mu.Unlock()
	return end.Sub(start), err
}

// durations returns the duration of every span named name, in order.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianMS is the median duration of the spans named name, in ms.
func (r *recorder) medianMS(name string) float64 { return medianMS(r.durations(name)) }

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
