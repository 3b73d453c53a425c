package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"
)

// defaultSeed is the seed golden.json pins; every other input derives
// from the seed argument, and the programs only ever see generated specs.
const defaultSeed = 20140901

// runSeconds is the measured window BENCHMARK.json fixes for every run.
const runSeconds = 15

// env is what one run is given.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds float64 // length of the measured window
	nproc   int
	smoke   bool      // self-test scale: same code paths, tiny inputs
	binDir  string    // where run.sh built bdservd and bdcoord
	outDir  string    // bench/out: temp data dirs, kept daemon logs, ledgers
	log     io.Writer // progress lines for a human; never the result line
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// workload is one closed loop of one kind of operation; run is its
// untraced end-to-end run. The traced pass is ledger.go.
type workload struct {
	Name string
	// Why is the line BENCHMARK.json carries: what runs and which layers
	// it stresses, so a later change knows where to look.
	Why string
	// Bound, when set, is the tighter bound the full set and -compare hold
	// this workload's latency and throughput to: BENCHMARK.json has one
	// bound per metric for all workloads, which the noisiest of them sets.
	Bound float64
	run   func(e *env) (*opLog, error)
}

// bound is the share of the base's median by which metric d may worsen on
// this workload.
func (w workload) bound(d metricDef) float64 {
	if w.Bound > 0 && d.Name != "setup_s" {
		return w.Bound
	}
	return d.Bound
}

// quietBound is the bound of the workloads that keep one processor busy at
// most: their ten-run spread stays near a tenth on this box while the
// two-processor workloads reach a quarter (README.md, "Run-to-run spread").
// It is ISSUE 11's ceiling for any bound.
const quietBound = 0.15

var workloadList = []workload{
	{
		Name: "paper-grid",
		Why:  "in-process core.Run, 32 built-ins x 2 nodes x 12000 instr at Parallelism=nproc: the simulator is ~99% of wall, so sim/trace changes show here and coordination changes must not",
		run:  runPaperGrid,
	},
	{
		Name: "analysis-wide",
		Why:  "in-process core.Analyze + canonical encode of a 1024x45 matrix: PCA, NN-chain and the BIC K-means scan do all the work and the simulator none, so a sim-only change predicts no move here",
		run:  runAnalysisWide,
	},
	{
		Name: "fleet-small-jobs",
		Why:  "2 bdservd + 1 bdcoord subprocesses, two clients submitting distinct CI-scale jobs (8 one-cell units of ~45 ms): per-unit HTTP hops, polling, journal and fsyncs dominate: the distribution tax",
		run:  runFleetSmallJobs,
	},
	{
		Name:  "fleet-overlap",
		Why:   "same fleet, one client: after a cold 8-workload job, variants with one pair swapped (12 of 16 columns read from the coordinator cell cache, 4 computed and stored): reads beside writes",
		Bound: quietBound,
		run:   runFleetOverlap,
	},
	{
		Name:  "fleet-replay",
		Why:   "same fleet, one client resubmitting a finished job: pure result-cache reads, four round trips and no compute, so a store or fsync change that helps writes and hurts reads shows as opposite moves",
		Bound: quietBound,
		run:   runFleetReplay,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is one run's record: the result line is its first four
// fields, the ledger file keeps all of it.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// LatencyMS is every successful op of an untraced run, in the order
	// they finished: a set pools them for the latency tail.
	LatencyMS []float64 `json:"latency_ms,omitempty"`
	Problems  []string  `json:"problems,omitempty"`
	// Hashes are the result SHA-256s golden.json pins for the default
	// seed, by label.
	Hashes map[string]string `json:"hashes,omitempty"`
}

// opLog times the operations of one run and counts the ones that failed:
// an error, a job that did not end "done", a hash mismatch or a refused
// submit. A failed op counts as missing any bound, so it makes the whole
// run incorrect. Safe for concurrent clients.
type opLog struct {
	mu       sync.Mutex
	lat      []time.Duration
	failed   int
	problems []string
	hashes   map[string]string
	setup    float64       // seconds, median over the set-ups of the run
	window   time.Duration // first timed op's start to last one's end
	untimed  time.Duration // part of the window spent preparing ops, not in them
}

func (o *opLog) ok(d time.Duration) {
	o.mu.Lock()
	o.lat = append(o.lat, d)
	o.mu.Unlock()
}

func (o *opLog) fail(format string, args ...any) {
	o.mu.Lock()
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// pin records a result hash under a golden label.
func (o *opLog) pin(label string, data []byte) {
	o.mu.Lock()
	if o.hashes == nil {
		o.hashes = map[string]string{}
	}
	o.hashes[label] = sha256Hex(data)
	o.mu.Unlock()
}

func sha256Hex(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// endToEnd derives the end-to-end numbers of the run. Throughput is ops
// per second the loop spent in ops: the window less the time a client
// spent preparing the next op's precondition (fleet-overlap's cold job).
func (o *opLog) endToEnd() metricSet {
	lat := sortedCopy(msAll(o.lat))
	busy := (o.window - o.untimed).Seconds()
	m := metricSet{"setup_s": o.setup}
	if len(lat) > 0 && busy > 0 {
		m["op_p50_ms"] = quantile(lat, 0.50)
		m["ops_per_s"] = float64(len(lat)) / busy
	}
	return m
}

// closedLoop runs op(0), op(1), … back to back in each of clients
// goroutines (indexes are handed out in order across them), starting a
// new op only while the window is open and at least minOps have started —
// so a slow system is offered less load. It returns the wall time from
// the first op's start to the last one's end. op returns the time it
// counts as the operation's latency.
func closedLoop(e *env, o *opLog, clients int, window time.Duration, minOps int, op func(i int) (time.Duration, error)) time.Duration {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= minOps && !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					o.fail("client panicked: %v", r)
				}
			}()
			for {
				i, more := take()
				if !more {
					return
				}
				if err := e.ctx.Err(); err != nil {
					o.fail("op %d: interrupted: %v", i, err)
					return
				}
				d, err := op(i)
				if err != nil {
					o.fail("op %d: %v", i, err)
					continue
				}
				o.ok(d)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// setupRuns is how many times a run sets up: one set-up is a single
// sample, and a later change that moves work into set-up must show
// against a steady number.
const setupRuns = 3

// medianSetup runs setup setupRuns times, hands every value but the last
// to discard, and returns the last with the median of the times. A setup
// that fails cleans up after itself.
func medianSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
