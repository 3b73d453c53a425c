package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestHighestPercentile(t *testing.T) {
	// The highest percentile that still has at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileIsPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	w := sortedCopy([]float64{3, 1, 4, 1, 5})
	for p, want := range map[float64]float64{0.25: 1, 0.5: 3, 0.75: 4.5} {
		if got := quantile(w, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", w, p, got, want)
		}
	}
	if q := quartilesOf([]float64{90, 100, 110, 100, 100}); math.Abs(q.spread()-0.10) > 1e-12 {
		t.Errorf("spread = %v, want 0.10", q.spread())
	}
}

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func span(id, parent, name string, from, to int) obs.Span {
	return obs.Span{ID: id, Parent: parent, Name: name, Start: at(from), End: at(to), Attrs: map[string]string{}}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		span("p", "", "parent", 0, 100),
		span("a", "p", "a", 10, 40),
		span("b", "p", "b", 30, 60),     // overlaps a: the union counts once
		span("c", "p", "c", 90, 120),    // sticks out: only 90–100 is inside
		span("d", "p", "d", -20, 0),     // ends where the parent starts: covers nothing
		span("g", "a", "grand", 10, 25), // a grandchild is its parent's business
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"p": 40 * time.Millisecond, // 100 − (10..60) − (90..100)
		"a": 15 * time.Millisecond,
		"b": 30 * time.Millisecond,
		"c": 30 * time.Millisecond,
		"g": 15 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of %s = %v, want %v", id, self[id], w)
		}
	}
}

// syntheticTrace is a two-unit coordinator job shaped like the daemons'
// exports: the queue-wait ends where the job span starts, each unit has
// dispatch, exec and validate children, and each exec has the worker's
// imported job and stage spans beneath it.
func syntheticTrace() obs.TraceExport {
	worker := func(s obs.Span, url string) obs.Span { s.Worker, s.Service = url, "bdservd"; return s }
	attr := func(s obs.Span, kv ...string) obs.Span {
		for i := 0; i < len(kv); i += 2 {
			s.Attrs[kv[i]] = kv[i+1]
		}
		return s
	}
	return obs.TraceExport{JobID: "j", Spans: []obs.Span{
		span("qw", "root", "queue-wait", -5, 0),
		attr(span("plan", "root", "plan", 10, 30), "units", "2"),
		attr(span("probe", "root", "cellcache-probe", 30, 32), "hits", "3"),
		attr(span("u0", "root", "unit", 32, 132), "attempt", "1"),
		span("u0d", "u0", "dispatch", 32, 52),
		span("u0e", "u0", "exec", 54, 124),
		worker(span("w0", "u0e", "job", 60, 120), "http://w0"),
		worker(span("w0c", "w0", "characterize", 70, 118), "http://w0"),
		span("u0v", "u0", "validate", 125, 130),
		attr(span("u1", "root", "unit", 40, 160), "attempt", "2"),
		span("u1d", "u1", "dispatch", 40, 70),
		span("u1e", "u1", "exec", 70, 150),
		worker(span("w1", "u1e", "job", 75, 145), "http://w1"),
		worker(span("w1c", "w1", "characterize", 80, 140), "http://w1"),
		span("u1v", "u1", "validate", 150, 158),
		span("merge", "root", "merge", 160, 161),
		span("pca", "root", "pca", 161, 164),
		span("hier", "root", "hierarchical", 164, 165),
		span("km", "root", "kmeans", 165, 168),
		span("sel", "root", "select", 168, 169),
		span("root", "", "job", 0, 170),
	}}
}

func TestReadJobTrace(t *testing.T) {
	tr, err := readJobTrace(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	scalars := map[string][2]float64{
		"job": {tr.job, 170}, "queueWait": {tr.queueWait, 5}, "preplan": {tr.preplan, 10},
		"plan": {tr.plan, 20}, "cellprobe": {tr.cellprobe, 2}, "unitSpan": {tr.unitSpan, 128},
		"merge": {tr.merge, 1}, "analysis": {tr.analysis, 8}, "finish": {tr.finish, 1},
		"units": {float64(tr.units), 2}, "dispatched": {float64(tr.dispatched), 2},
		"retries": {float64(tr.retries), 1}, "probeHits": {float64(tr.probeHits), 3},
	}
	for name, gw := range scalars {
		if gw[0] != gw[1] {
			t.Errorf("%s = %v, want %v", name, gw[0], gw[1])
		}
	}
	lists := map[string][2][]float64{
		"dispatch":           {tr.dispatch, {20, 30}},
		"exec":               {tr.exec, {70, 80}},
		"validate":           {tr.validate, {5, 8}},
		"unitGap":            {tr.unitGap, {5, 2}},        // 100−20−70−5, 120−30−80−8
		"execOverhead":       {tr.execOverhead, {10, 10}}, // exec − worker job
		"workerJob":          {tr.workerJob, {60, 70}},
		"workerCharacterize": {tr.workerCharacterize, {48, 60}},
	}
	for name, gw := range lists {
		if !reflect.DeepEqual(gw[0], gw[1]) {
			t.Errorf("%s = %v, want %v", name, gw[0], gw[1])
		}
	}
	// Parent/child accounting: the named layers tile the job span.
	if got := tr.sumRatio(); math.Abs(got-1) > 1e-9 {
		t.Errorf("sumRatio = %v, want 1", got)
	}

	x := syntheticTrace()
	x.DroppedSpans = 3
	if _, err := readJobTrace(x); err == nil {
		t.Error("a trace that dropped spans must not be read as complete")
	}
	x = syntheticTrace()
	x.Spans = x.Spans[:len(x.Spans)-1]
	if _, err := readJobTrace(x); err == nil {
		t.Error("a trace without the coordinator's job span must be refused")
	}
}

const metricsText = `# HELP bd_http_requests_total HTTP requests served.
# TYPE bd_http_requests_total counter
bd_http_requests_total{method="GET",path="/healthz",code="200"} 7
bd_http_requests_total{method="GET",path="/metrics",code="200"} 2
bd_http_requests_total{method="GET",path="/v1/jobs/{id}/events",code="200"} 4
bd_http_requests_total{method="POST",path="/v1/jobs",code="202"} 4
bd_journal_appends_total 105
bd_process_uptime_seconds 10.347774916
bd_job_duration_seconds_bucket{state="done",le="+Inf"} 1
bd_cellcache_requests_total{workload="H Sort",result="miss"} 2
`

func TestParseMetrics(t *testing.T) {
	s, err := parseMetrics(strings.NewReader(metricsText))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family string
		match  []string
		want   float64
	}{
		{"bd_http_requests_total", nil, 17},
		{"bd_http_requests_total", []string{`method="GET"`}, 13},
		{"bd_http_requests_total", []string{`method="GET"`, `code="200"`, `path="/metrics"`}, 2},
		{"bd_journal_appends_total", nil, 105},
		{"bd_process_uptime_seconds", nil, 10.347774916},
		{"bd_cellcache_requests_total", nil, 2}, // a label value with a space
		{"bd_http_requests", nil, 0},            // a prefix is not a family
	} {
		if got := s.sum(c.family, c.match...); got != c.want {
			t.Errorf("sum(%s, %v) = %v, want %v", c.family, c.match, got, c.want)
		}
	}
	if got := httpRequests(s); got != 8 {
		t.Errorf("httpRequests = %v, want 8 (without /metrics and /healthz)", got)
	}
	if _, err := parseMetrics(strings.NewReader("bd_x{a=\"b\"}\n")); err == nil {
		t.Error("a series without a value must be an error")
	}
}

func TestProcReaders(t *testing.T) {
	// The command name may hold spaces and parentheses; utime and stime are
	// fields 14 and 15.
	stat := "4242 (bd (coord) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 8 0 100 200 300"
	if got, err := parseStatCPU(stat); err != nil || got != 2.0 {
		t.Errorf("parseStatCPU = %v, %v; want 2.0", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	status := "Name:\tbdcoord\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc here")
	}
	if cpu, err := cpuSeconds(0); err != nil || cpu < 0 {
		t.Errorf("cpuSeconds(self) = %v, %v", cpu, err)
	}
	if rss, err := peakRSSMB(0); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", rss, err)
	}
}

// Two children that ignore SIGINT: the grace period runs out once, and
// both must be killed and reaped, not only the first.
func TestStopDaemonsKillsEveryStuckChild(t *testing.T) {
	var ds []*daemon
	for i := 0; i < 2; i++ {
		cmd := exec.Command("sh", "-c", `trap "" INT; echo ready; exec sleep 60`)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		d, err := launch(fmt.Sprint("stuck", i), cmd)
		if err != nil {
			t.Skip("no sh to run: ", err)
		}
		t.Cleanup(func() { d.cmd.Process.Kill() })
		// The interrupt must not arrive before the trap is in place.
		if line, err := bufio.NewReader(out).ReadString('\n'); err != nil || line != "ready\n" {
			t.Fatalf("child said %q, %v", line, err)
		}
		ds = append(ds, d)
	}
	done := make(chan struct{})
	go func() {
		stopDaemons(ds, 50*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stopDaemons hangs on a second child that ignores SIGINT")
	}
	for _, d := range ds {
		select {
		case <-d.exited:
			if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || ws.Signal() != syscall.SIGKILL {
				t.Errorf("%s ended %v, want killed", d.name, d.cmd.ProcessState)
			}
		default:
			t.Errorf("%s was not reaped", d.name)
		}
	}
	live.Lock()
	left := len(live.m)
	live.Unlock()
	if left != 0 {
		t.Errorf("%d children still tracked after the stop", left)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2, c * 0.9, c * 1.15} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, tight(100), tight(100), verdictOK},
		{"within the bound", lower, tight(100), tight(108), verdictOK},
		{"beyond the bound", lower, tight(100), tight(115), verdictRegressed},
		{"faster is never a regression", lower, tight(100), tight(50), verdictOK},
		{"throughput down", higher, tight(100), tight(85), verdictRegressed},
		{"throughput up", higher, tight(100), tight(130), verdictOK},
		{"noisy base", lower, wide(100), tight(100), verdictUnresolved},
		{"noisy new", lower, tight(100), wide(120), verdictUnresolved},
		{"noisy, but every run better", lower, wide(100), wide(50), verdictOK},
		{"noisy, but every run better (higher)", higher, wide(100), wide(200), verdictOK},
	} {
		if got := judge(c.d, c.d.Bound, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func writeLedger(t *testing.T, dir, name string, lf *ledgerFile) string {
	t.Helper()
	data, err := json.Marshal(lf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	// Ten runs of eight ops each on two workloads, and one traced pass.
	set := func(p50 float64, ipc float64) *ledgerFile {
		lf := &ledgerFile{Seconds: 15}
		for _, wl := range []string{"paper-grid", "fleet-replay"} {
			for k := 0; k < 10; k++ {
				jitter := 1 + 0.004*float64(k-5)
				lat := make([]float64, 8)
				for i := range lat {
					lat[i] = p50 * jitter * (1 + 0.01*float64(i-4))
				}
				lf.Runs = append(lf.Runs, &runResult{Workload: wl, Correct: true, Attempted: 8, LatencyMS: lat, Metrics: map[string]metricValue{
					"op_p50_ms": {p50 * jitter, "ms"}, "ops_per_s": {1000 / p50 / jitter, "1/s"}, "setup_s": {0.2 * jitter, "s"}}})
			}
		}
		lf.Runs = append(lf.Runs, &runResult{Trace: true, Correct: true, Attempted: 3, Metrics: map[string]metricValue{
			"sim.ipc": {ipc, "instr/cycle"}, "sim.exec_ns_per_instr": {300 * p50 / 2000, "ns/instr"}}})
		return lf
	}
	dir := t.TempDir()
	base := writeLedger(t, dir, "a.json", set(2000, 0.03))
	same := writeLedger(t, dir, "b.json", set(2020, 0.03))
	slower := writeLedger(t, dir, "c.json", set(2400, 0.03))
	slow := writeLedger(t, dir, "d.json", set(2900, 0.03))
	bits := writeLedger(t, dir, "e.json", set(2000, 0.031))

	rows := func(out, workload, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, workload) && strings.Contains(line, metric) {
				return line
			}
		}
		return ""
	}
	var out bytes.Buffer
	bad, err := compareFiles(&out, base, same)
	if err != nil || bad {
		t.Fatalf("equal sets: bad=%v err=%v\n%s", bad, err, out.String())
	}
	for _, want := range []string{"paper-grid", "op_p50_ms", "1.010", "ok", "exact: identical", "op_tail_ms", "p75 of 80 ops"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison of equal sets lacks %q:\n%s", want, out.String())
		}
	}
	// 20 % slower: inside paper-grid's bound, outside fleet-replay's tighter
	// one, for the median and the tail alike.
	out.Reset()
	if bad, err = compareFiles(&out, base, slower); err != nil || !bad {
		t.Errorf("a 20%% slower set: bad=%v err=%v\n%s", bad, err, out.String())
	}
	for _, metric := range []string{"op_p50_ms", "op_tail_ms"} {
		if row := rows(out.String(), "paper-grid", metric); !strings.HasSuffix(row, "ok") {
			t.Errorf("20%% slower, paper-grid %s: %q, want ok", metric, row)
		}
		if row := rows(out.String(), "fleet-replay", metric); !strings.HasSuffix(row, "regressed") {
			t.Errorf("20%% slower, fleet-replay %s: %q, want regressed", metric, row)
		}
	}
	out.Reset()
	if bad, err = compareFiles(&out, base, slow); err != nil || !bad || !strings.HasSuffix(rows(out.String(), "paper-grid", "op_p50_ms"), "regressed") {
		t.Errorf("a 45%% slower set: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err = compareFiles(&out, base, bits); err != nil || !bad || !strings.Contains(out.String(), "exact: DIFFERS") {
		t.Errorf("a moved exact row: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if _, err := compareFiles(io.Discard, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing ledger file must be an error")
	}

	out.Reset()
	lf := set(2000, 0.03)
	printSet(&out, lf)
	for _, want := range []string{"op_tail_ms", "p75 of 80 ops", "failed_ops", "sim.ipc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the set's print-out lacks %q:\n%s", want, out.String())
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBenchmarkJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json is out of step with metrics.go/workloads.go: regenerate it with `bash bench/run.sh -benchmark-json > BENCHMARK.json`")
	}
	// The limits the benchmark contract puts on the file.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's naming rules", d)
		}
	}
	for _, w := range workloadList {
		if seen[w.Name] || !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s (why: %d characters) breaks the contract's rules", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(workloadList) < 2 || len(workloadList) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(data) > 64<<10 {
		t.Error("BENCHMARK.json is outside the contract's size limits")
	}
	if setup := endToEnd[len(endToEnd)-1]; setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Error("the last end-to-end metric must be setup_s, in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		for _, w := range workloadList {
			if b := w.bound(d); b <= 0 || b > d.Bound {
				t.Errorf("%s on %s: bound %v must tighten the file's %v, not widen it", d.Name, w.Name, b, d.Bound)
			}
		}
	}
}

func smokeEnv(t *testing.T) *env {
	return &env{ctx: context.Background(), seed: 7, seconds: 0.05, nproc: 2, smoke: true,
		outDir: t.TempDir(), binDir: os.Getenv("BENCH_BIN"), log: io.Discard}
}

func TestClosedLoop(t *testing.T) {
	e := smokeEnv(t)
	o := &opLog{}
	var seen [6]bool
	closedLoop(e, o, 2, 0, len(seen), func(i int) (time.Duration, error) {
		seen[i] = true // each index is handed out once
		return time.Millisecond, nil
	})
	if len(o.lat) != len(seen) || o.failed != 0 {
		t.Errorf("a closed window ran %d ops with %d failures, want exactly the minimum %d", len(o.lat), o.failed, len(seen))
	}
	o = &opLog{}
	w := closedLoop(e, o, 1, 30*time.Millisecond, 1, func(int) (time.Duration, error) {
		time.Sleep(4 * time.Millisecond)
		return 4 * time.Millisecond, nil
	})
	if len(o.lat) < 3 || w < 30*time.Millisecond {
		t.Errorf("a 30 ms window ran %d ops in %v", len(o.lat), w)
	}
}

// One smoke-scale pass of each in-process workload, untraced and traced.
func TestInProcessWorkloadsSmoke(t *testing.T) {
	e := smokeEnv(t)
	for _, name := range []string{"paper-grid", "analysis-wide"} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		res, err := runOne(e, w, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", name, d.Name, v)
			}
		}
		if res.Hashes[name+"/op0"] == "" {
			t.Errorf("%s pinned no result hash", name)
		}
	}

	o, m := &opLog{}, metricSet{}
	if err := ledgerPaperGrid(e, o, m, 0); err != nil {
		t.Fatal(err)
	}
	if err := ledgerAnalysisWide(e, o, m, 0); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Errorf("traced parts failed ops: %v", o.problems)
	}
	for _, name := range []string{"core.characterize_s", "core.layer_sum_ratio", "cluster.cell_ms_p50", "cluster.par_efficiency",
		"fidelity.best_k", "pca.fit_ms", "kmeans.bestk_ms", "kmeans.run_k7_ms", "benchio.analysis_bytes", "analysis.layer_sum_ratio"} {
		if m[name] <= 0 {
			t.Errorf("traced part left %s = %v", name, m[name])
		}
	}
}

// The fleet workloads need the daemon binaries: BENCH_BIN names their
// directory (bench/run.sh builds them into bench/out/.build/bin).
func TestFleetWorkloadsSmoke(t *testing.T) {
	e := smokeEnv(t)
	if e.binDir == "" {
		t.Skip("BENCH_BIN is not set: no daemons to run")
	}
	defer stopAllDaemons()
	for _, name := range []string{"fleet-small-jobs", "fleet-overlap", "fleet-replay"} {
		w, _ := findWorkload(name)
		res, err := runOne(e, w, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
	}
	o, m := &opLog{}, metricSet{}
	if err := ledgerFleets(e, o, m, func(string) time.Duration { return 0 }); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Errorf("traced fleets failed ops: %v", o.problems)
	}
	for name, want := range map[string]float64{
		"shard.units_per_job": 4, "http.worker_requests_per_unit": 3, "cellcache.coord_hits_per_overlap_job": 6,
		"cellcache.coord_stores_per_overlap_job": 2, "cellcache.coord_stores_per_cold_job": 8, "shard.retries_per_job": 0,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	live.Lock()
	left := len(live.m)
	live.Unlock()
	if left != 0 {
		t.Errorf("%d daemons outlived their fleets", left)
	}
	if entries, _ := os.ReadDir(e.outDir); len(entries) != 0 {
		t.Errorf("fleets left %d entries in the output directory", len(entries))
	}
}
