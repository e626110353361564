package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"tiledqr/internal/vec"
)

// Fingerprint identifies the host and build a result was measured on.
// Results are comparable only when their Host parts are equal; the commit
// is recorded for reference and is expected to differ between the two
// sides of a comparison.
type Fingerprint struct {
	Host   HostInfo `json:"host"`
	Commit string   `json:"commit"`
}

// HostInfo is the part of a fingerprint two comparable results must share.
type HostInfo struct {
	CPU        string            `json:"cpu"`
	SIMD       string            `json:"simd"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	GoVersion  string            `json:"go_version"`
	Env        map[string]string `json:"env"` // every TILEDQR_* variable
}

func (h HostInfo) equal(o HostInfo) bool {
	if h.CPU != o.CPU || h.SIMD != o.SIMD || h.GOMAXPROCS != o.GOMAXPROCS ||
		h.NProc != o.NProc || h.GoVersion != o.GoVersion || len(h.Env) != len(o.Env) {
		return false
	}
	for k, v := range h.Env {
		if w, ok := o.Env[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func fingerprint() Fingerprint {
	fp := Fingerprint{
		Host: HostInfo{
			CPU:        cpuModel(),
			SIMD:       vec.ActiveFamily(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Env:        tiledqrEnv(),
		},
		Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			fp.Commit = rev + dirty
		}
	}
	return fp
}

func tiledqrEnv() map[string]string {
	env := map[string]string{}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "TILEDQR_") {
			env[k] = v
		}
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" when
// the file or the field is missing).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
