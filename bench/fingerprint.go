package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fingerprint identifies the box and the build a set of numbers came
// from. Absolute seconds from two boxes are never compared unnormalised:
// CalibScore is the yardstick (ROADMAP 1d). Printed, not gated.
type fingerprint struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	CalibScore float64 `json:"calib_score"` // calibration-loop iterations per microsecond
}

func takeFingerprint() fingerprint {
	return fingerprint{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		CalibScore: calibrate(),
	}
}

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

func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Never adopt a repository above the checkout the harness runs in.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // an exported checkout is not a repository
	}
	return strings.TrimSpace(string(out))
}

// calibSink keeps the calibration loop's result alive.
var calibSink float64

// calibrate times a fixed integer+float loop (the simulator's own mix: a
// xorshift step, a multiply-add and a data-dependent branch) and returns
// iterations per microsecond, best of five so a preempted pass is dropped.
func calibrate() float64 {
	const iters = 4_000_000
	best := math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		x, acc := uint64(0x9E3779B97F4A7C15), 0.0
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f := float64(x>>11) / (1 << 53)
			if f < 0.5 {
				acc += f * 1.0000001
			} else {
				acc -= f
			}
		}
		calibSink = acc
		if us := float64(time.Since(start).Nanoseconds()) / 1e3; us < best {
			best = us
		}
	}
	return iters / best
}
