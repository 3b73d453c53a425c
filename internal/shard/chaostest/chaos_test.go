package chaostest

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/cluster/kmeans"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim/machine"
	"repro/internal/trace"
)

// chaosSpec builds a fast CI-scale job over the named workloads.
func chaosSpec(names []string, nodes, runs, instr, slices int, observations bool) service.JobSpec {
	m := machine.Westmere()
	m.Sockets, m.CoresPerSocket = 1, 2
	m.L1I.SizeB = 1 << 10
	m.L1D.SizeB = 1 << 10
	m.L2.SizeB = 4 << 10
	m.L3.SizeB = 32 << 10
	spec := service.JobSpec{
		Workloads: names,
		Suite:     workloads.Config{Seed: 11, Scale: 1 << 16},
		Cluster: cluster.Config{
			Machine:             m,
			SlaveNodes:          nodes,
			InstructionsPerCore: instr,
			Slices:              slices,
			Monitor:             perf.DefaultMonitor(),
			Runs:                runs,
			Seed:                11,
			ExecutionJitter:     0.05,
		},
		Analysis: core.AnalysisConfig{
			KMin: 2, KMax: 2,
			KMeans: kmeans.Config{Restarts: 2, Seed: 7},
		},
	}
	if observations {
		spec.Mode = service.ModeObservations
	}
	return spec
}

// chaosCustomDefs returns the custom definitions the chaos suite mixes
// in: one blended scenario (H-/S-ChaosProbe) and one raw profile
// (RawProbe) — both cheap at chaos scale.
func chaosCustomDefs() []custom.Definition {
	return []custom.Definition{
		{
			Name: "ChaosProbe",
			Data: custom.DataSpec{PaperBytes: 2 << 30, Skew: 0.35},
			Mix: &trace.Params{
				LoadFrac: 0.33, StoreFrac: 0.07, BranchFrac: 0.19,
				DepFrac: 0.25, SeqFrac: 0.45, BranchEntropy: 0.12,
			},
			ShuffleFrac: 0.15,
		},
		{
			Name: "RawProbe",
			Raw: &trace.Profile{
				Compute: trace.Params{
					LoadFrac: 0.3, StoreFrac: 0.1, UopsPerInstr: 1.3,
					CodeFootprintB: 64 << 10, DataFootprintB: 4 << 20,
					DataSkew: 0.3, SeqFrac: 0.5,
				},
			},
		},
	}
}

// worker is one in-process bdservd behind a real HTTP listener.
type worker struct {
	url string
	mgr *service.Manager
	srv *http.Server
}

func startWorker(t *testing.T) *worker {
	t.Helper()
	return startWorkerWith(t, service.Config{Workers: 2, Parallelism: 2})
}

// startWorkerWith starts an in-process worker with an explicit service
// configuration (the recovery tests throttle cells to slow workers down).
func startWorkerWith(t *testing.T, cfg service.Config) *worker {
	t.Helper()
	mgr, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewHandler(mgr)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &worker{url: "http://" + ln.Addr().String(), mgr: mgr, srv: srv}
}

// golden runs the spec on a plain single-daemon manager and returns the
// canonical result bytes and hash — the reference every chaotic run must
// reproduce exactly.
func golden(t *testing.T, spec service.JobSpec) (string, []byte) {
	t.Helper()
	mgr, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	st, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, mgr, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("golden job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := mgr.Result(st.ID)
	if !ok {
		t.Fatal("golden job has no result bytes")
	}
	return fin.ResultHash, data
}

func waitTerminal(t *testing.T, m *service.Manager, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State == service.StateDone || st.State == service.StateFailed || st.State == service.StateCanceled {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s not terminal after %v (state %s, cells %d/%d)",
		id, timeout, st.State, st.CellsDone, st.CellsTotal)
	return service.JobStatus{}
}

// chaosExecConfig is the coordinator configuration used under fault
// injection: tight stall/probe/breaker knobs so faults are detected in
// milliseconds, and a generous attempt budget so finite fault scripts
// always drain before a unit exhausts.
func chaosExecConfig(urls []string, unitsPerWorker int) shard.Config {
	return shard.Config{
		Workers:          urls,
		Parallelism:      2,
		StallTimeout:     2 * time.Second,
		UnitsPerWorker:   unitsPerWorker,
		ProbeInterval:    50 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 2,
		MaxUnitAttempts:  12,
		DownGrace:        10 * time.Second,
	}
}

// runChaotic runs spec through a coordinator whose workers sit behind the
// given chaos proxies and returns the merged hash and bytes.
func runChaotic(t *testing.T, spec service.JobSpec, proxies []*Proxy, unitsPerWorker int) (string, []byte) {
	t.Helper()
	urls := make([]string, len(proxies))
	for i, p := range proxies {
		urls[i] = p.URL()
	}
	exec, err := shard.New(chaosExecConfig(urls, unitsPerWorker))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, coord, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("chaotic job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord.Result(st.ID)
	if !ok {
		t.Fatal("chaotic job has no result bytes")
	}
	return fin.ResultHash, data
}

func newProxy(t *testing.T, target string, script Script) *Proxy {
	t.Helper()
	p, err := New(target, script)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func assertIdentical(t *testing.T, scenario, wantHash string, wantBytes []byte, gotHash string, gotBytes []byte) {
	t.Helper()
	if gotHash != wantHash {
		t.Errorf("%s: merged hash %s != golden hash %s", scenario, gotHash, wantHash)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("%s: merged bytes differ from golden bytes", scenario)
	}
}

// TestChaosLatency: one worker is slow on every request; the fast worker
// steals the tail and the merged result is untouched.
func TestChaosLatency(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	fast := newProxy(t, startWorker(t).url, Script{})
	slow := newProxy(t, startWorker(t).url, Script{Latency: 150 * time.Millisecond})
	gotHash, gotBytes := runChaotic(t, spec, []*Proxy{fast, slow}, 4)
	assertIdentical(t, "latency", wantHash, wantBytes, gotHash, gotBytes)
}

// TestChaosMidStreamDisconnect: the first two event streams on one worker
// die after a single line; the re-queued units must land elsewhere (or
// retry clean) with the result intact.
func TestChaosMidStreamDisconnect(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	flaky := newProxy(t, startWorker(t).url, Script{
		StreamFaults: []StreamFault{{CutAfterLines: 1}, {CutAfterLines: 2}},
	})
	clean := newProxy(t, startWorker(t).url, Script{})
	gotHash, gotBytes := runChaotic(t, spec, []*Proxy{flaky, clean}, 3)
	assertIdentical(t, "mid-stream disconnect", wantHash, wantBytes, gotHash, gotBytes)
}

// TestChaosWrongShape: every corrupt kind is injected as a worker's first
// result responses; unit-level validation must reject each and the job
// must still converge to the golden bytes.
func TestChaosWrongShape(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	for _, kind := range []Corrupt{CorruptDropWorkload, CorruptRenameMetric, CorruptNodeOffset, CorruptGarbage} {
		t.Run(string(kind), func(t *testing.T) {
			bad := newProxy(t, startWorker(t).url, Script{
				ResultFaults: []Corrupt{kind, kind},
			})
			good := newProxy(t, startWorker(t).url, Script{})
			gotHash, gotBytes := runChaotic(t, spec, []*Proxy{bad, good}, 3)
			assertIdentical(t, string(kind), wantHash, wantBytes, gotHash, gotBytes)
		})
	}
}

// TestChaosCustomWorkloads: a spec carrying custom workload definitions
// (blended H-/S- pair plus a raw profile) runs under mid-stream
// disconnects and corrupt results on one worker; the merged bytes must
// still match the single-daemon golden run, and resubmission must be a
// cache hit with the unchanged job ID — the acceptance property for the
// open scenario registry.
func TestChaosCustomWorkloads(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "H-ChaosProbe", "S-ChaosProbe", "RawProbe"}, 2, 1, 1500, 8, false)
	spec.CustomWorkloads = chaosCustomDefs()
	wantHash, wantBytes := golden(t, spec)
	flaky := newProxy(t, startWorker(t).url, Script{
		StreamFaults: []StreamFault{{CutAfterLines: 1}},
		ResultFaults: []Corrupt{CorruptDropWorkload},
	})
	clean := newProxy(t, startWorker(t).url, Script{})
	urls := []string{flaky.URL(), clean.URL()}
	exec, err := shard.New(chaosExecConfig(urls, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, coord, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("custom chaotic job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord.Result(st.ID)
	if !ok {
		t.Fatal("custom chaotic job has no result bytes")
	}
	assertIdentical(t, "custom workloads under faults", wantHash, wantBytes, fin.ResultHash, data)

	again, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.ID != st.ID || again.ResultHash != wantHash {
		t.Errorf("resubmission not a stable cache hit: %+v", again)
	}
}

// TestChaosCrashRestart: a worker's network dies mid-job and comes back;
// the breaker opens, the half-open probe re-admits it, and the merge is
// unchanged.
func TestChaosCrashRestart(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 2500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	crashy := newProxy(t, startWorker(t).url, Script{
		CrashAfterRequests: 4,
		RestartAfter:       300 * time.Millisecond,
	})
	steady := newProxy(t, startWorker(t).url, Script{})
	gotHash, gotBytes := runChaotic(t, spec, []*Proxy{crashy, steady}, 4)
	assertIdentical(t, "crash-restart", wantHash, wantBytes, gotHash, gotBytes)
}

// TestChaosCrashFreshWorker: the crash loses the worker entirely — the
// proxy comes back pointing at a brand-new daemon with empty cache and
// no job state, the hard version of crash-and-restart.
func TestChaosCrashFreshWorker(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 2500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	crashy := newProxy(t, startWorker(t).url, Script{
		CrashAfterRequests: 4,
		RestartAfter:       300 * time.Millisecond,
	})
	crashy.OnRestart = func() string { return startWorker(t).url }
	steady := newProxy(t, startWorker(t).url, Script{})
	gotHash, gotBytes := runChaotic(t, spec, []*Proxy{crashy, steady}, 4)
	assertIdentical(t, "crash-fresh-worker", wantHash, wantBytes, gotHash, gotBytes)
}

// TestChaosPropertyMergedHashMatchesGolden is the headline property test:
// for seeded-random grids, worker counts, unit granularities and fault
// scripts (latency, mid-stream disconnects, wrong-shape results,
// crash-and-restart), the coordinator's merged result must be
// byte-identical to the single-daemon golden run. Fault scripts are
// finite by construction, so every run converges. Half the draws carry
// custom workload definitions (their names joining the selection pool),
// so the determinism property covers the open scenario registry too.
func TestChaosPropertyMergedHashMatchesGolden(t *testing.T) {
	builtins := []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep", "H-WordCount", "S-WordCount"}
	iters := 4
	if testing.Short() {
		iters = 1
	}
	for iter := 0; iter < iters; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + 7*iter)))
			withCustom := rng.Intn(2) == 0
			pool := append([]string(nil), builtins...)
			if withCustom {
				// Custom names go first so the pre-shuffle window always
				// sees them; the shuffle may still trim them out, which
				// exercises definitions carried but not selected.
				pool = append([]string{"H-ChaosProbe", "S-ChaosProbe", "RawProbe"}, builtins...)
			}
			nw := 2 + rng.Intn(3) // workloads
			names := append([]string(nil), pool[:nw+2]...)
			rngShuffleTrim(rng, &names, nw)
			spec := chaosSpec(
				names,
				1+rng.Intn(3), // nodes
				1+rng.Intn(2), // runs
				1000+rng.Intn(800),
				4+rng.Intn(5),
				rng.Intn(3) == 0, // sometimes characterize-only
			)
			if withCustom {
				spec.CustomWorkloads = chaosCustomDefs()
			}
			wantHash, wantBytes := golden(t, spec)

			workers := 1 + rng.Intn(3)
			proxies := make([]*Proxy, workers)
			for i := 0; i < workers; i++ {
				proxies[i] = newProxy(t, startWorker(t).url, randomScript(rng, workers))
			}
			upw := 2 + rng.Intn(3)
			var gotHash string
			var gotBytes []byte
			if rng.Intn(3) == 0 {
				// Coordinator-crash variant: kill and restart the
				// coordinator mid-job over its job records + cell cache, with a
				// clean worker joining and a seeded one leaving during
				// recovery (see recovery_test.go). The determinism property
				// must hold across coordinator incarnations too.
				extra := newProxy(t, startWorker(t).url, Script{})
				gotHash, gotBytes = runWithCoordinatorCrash(t, spec, proxies, upw, extra)
			} else {
				gotHash, gotBytes = runChaotic(t, spec, proxies, upw)
			}
			assertIdentical(t, fmt.Sprintf("iter %d", iter), wantHash, wantBytes, gotHash, gotBytes)
		})
	}
}

// rngShuffleTrim shuffles names and trims to n, preserving canonical
// suite order afterwards is NOT required — workload order is part of the
// job identity and both golden and chaotic runs see the same list.
func rngShuffleTrim(rng *rand.Rand, names *[]string, n int) {
	s := *names
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	*names = s[:n]
}

// randomScript draws one worker's fault plan. Every list is short and
// finite; crashes always restart. With a single worker the crash fault is
// kept but the restart window is shortened so the DownGrace never
// triggers.
func randomScript(rng *rand.Rand, workers int) Script {
	var s Script
	switch rng.Intn(3) {
	case 1:
		s.Latency = 20 * time.Millisecond
	case 2:
		s.Latency = 100 * time.Millisecond
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.StreamFaults = append(s.StreamFaults, StreamFault{CutAfterLines: rng.Intn(4)})
	}
	kinds := []Corrupt{CorruptDropWorkload, CorruptRenameMetric, CorruptNodeOffset, CorruptGarbage}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.ResultFaults = append(s.ResultFaults, kinds[rng.Intn(len(kinds))])
	}
	if rng.Intn(3) == 0 {
		s.CrashAfterRequests = 3 + rng.Intn(10)
		s.RestartAfter = time.Duration(100+rng.Intn(200)) * time.Millisecond
		if workers == 1 {
			s.RestartAfter = 100 * time.Millisecond
		}
	}
	return s
}
