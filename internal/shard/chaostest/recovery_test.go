package chaostest

// Coordinator crash-recovery chaos tests: the coordinator itself — not a
// worker — is killed mid-job and restarted over its job records + cell
// cache, while the worker fleet churns (a fresh worker joins, a seeded
// one leaves). The acceptance property is twofold: the merged result
// stays byte-identical to the single-daemon golden run, and no finished
// work is redone — across both incarnations every workload×node column
// is stored in the cell cache exactly once, and the restarted
// coordinator reads back every column stored before the crash.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

// recordTerminal reports whether jobID's record under dataDir says the
// job reached a terminal state.
func recordTerminal(t *testing.T, dataDir, jobID string) bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "jobs", jobID+".json"))
	if err != nil {
		t.Fatalf("reading job record: %v", err)
	}
	var rec struct {
		State service.State `json:"state"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("parsing job record: %v", err)
	}
	return rec.State == service.StateDone || rec.State == service.StateFailed || rec.State == service.StateCanceled
}

// startWorkerThrottled is startWorker with an artificial per-cell delay,
// slow enough that a coordinator killed after its first cell-cache store
// reliably leaves work unfinished.
func startWorkerThrottled(t *testing.T, d time.Duration) *worker {
	t.Helper()
	return startWorkerWith(t, service.Config{Workers: 2, Parallelism: 2, CellDelay: d})
}

// runWithCoordinatorCrash runs spec through a coordinator with job
// records and a cell cache that is killed the moment its first column
// lands in that cache (Close with the job still running writes no
// terminal record — the crash model), then restarted over the same data
// dir and cell cache.
// During recovery the fleet churns: extra (if non-nil) joins via the
// registration path and the last initial proxy's worker leaves. It
// asserts that across both incarnations each workload×node column is
// stored exactly once and that the restarted coordinator's cell-cache
// hits cover every column stored before the crash, and returns the
// merged hash and bytes for the caller's golden comparison.
func runWithCoordinatorCrash(t *testing.T, spec service.JobSpec, proxies []*Proxy, upw int, extra *Proxy) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	cellDir := filepath.Join(dir, "cells")
	urls := make([]string, len(proxies))
	for i, p := range proxies {
		urls[i] = p.URL()
	}
	mkExec := func(reg *obs.Registry) *shard.Executor {
		cfg := chaosExecConfig(urls, upw)
		cells, err := cellcache.Open(cellDir, 0, 0, cellcache.NewMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cells = cells
		cfg.Registry = reg
		exec, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	mkCoord := func(exec *shard.Executor) *service.Manager {
		coord, err := service.New(service.Config{
			Workers: 2,
			DataDir: dataDir,
			Execute: exec.Execute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	// Incarnation one: submit, wait for the first cell-cache store, then
	// die without a terminal record.
	reg1 := obs.NewRegistry()
	exec1 := mkExec(reg1)
	coord1 := mkCoord(exec1)
	st, err := coord1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for counterValue(t, reg1, "bd_cellcache_stores_total") < 1 {
		if cur, _ := coord1.Get(st.ID); cur.State == service.StateFailed {
			t.Fatalf("job failed before crash: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell-cache store within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	coord1.Close()
	exec1.Close()
	// Close waited for every dispatcher, so no store lands after this read.
	preStores := counterValue(t, reg1, "bd_cellcache_stores_total")
	terminal := recordTerminal(t, dataDir, st.ID)

	// Incarnation two over the same job records + cell cache re-adopts the
	// job at New. Churn the fleet while it recovers: extra joins, the
	// last seeded worker leaves.
	reg2 := obs.NewRegistry()
	exec2 := mkExec(reg2)
	defer exec2.Close()
	coord2 := mkCoord(exec2)
	defer coord2.Close()
	if extra != nil {
		if _, err := exec2.Register(extra.URL(), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if len(proxies) > 1 {
		time.Sleep(50 * time.Millisecond)
		exec2.Deregister(urls[len(urls)-1])
	}
	fin := waitTerminal(t, coord2, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("recovered job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord2.Result(st.ID)
	if !ok {
		t.Fatal("recovered job has no result bytes")
	}

	if terminal {
		// The job slipped to terminal between the last poll and Close —
		// nothing was left to recover; the golden comparison still holds.
		t.Logf("job completed before the crash landed; skipping recovery accounting")
		return fin.ResultHash, data
	}

	// No column is computed twice: the restarted coordinator re-plans for
	// its own fleet, finds every column stored before the crash (whatever
	// the new tiling), and stores only the rest.
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := norm.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	columns := float64(len(suite) * norm.Cluster.SlaveNodes)
	postStores := counterValue(t, reg2, "bd_cellcache_stores_total")
	if preStores+postStores != columns {
		t.Errorf("stored %v columns before the crash and %v after, want %v in total (each exactly once)",
			preStores, postStores, columns)
	}
	entries, err := os.ReadDir(cellDir)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(entries)) != columns {
		t.Errorf("cell cache holds %d entries, want one per column (%v)", len(entries), columns)
	}
	if hits := counterValue(t, reg2, "bd_cellcache_hits_total"); hits < preStores {
		t.Errorf("restarted coordinator hit %v cached columns, want ≥ the %v stored before the crash", hits, preStores)
	}
	return fin.ResultHash, data
}

// TestChaosCoordinatorCrashRecovery is the acceptance scenario: the
// coordinator is killed after its first cell-cache store and restarted
// mid-job while a fresh worker joins and a seeded one leaves. The merged
// result must be byte-identical to the single-daemon golden run, and no
// column stored before the crash may be computed again.
func TestChaosCoordinatorCrashRecovery(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	p1 := newProxy(t, startWorkerThrottled(t, 40*time.Millisecond).url, Script{})
	p2 := newProxy(t, startWorkerThrottled(t, 40*time.Millisecond).url, Script{})
	extra := newProxy(t, startWorker(t).url, Script{})
	gotHash, gotBytes := runWithCoordinatorCrash(t, spec, []*Proxy{p1, p2}, 4, extra)
	assertIdentical(t, "coordinator-crash", wantHash, wantBytes, gotHash, gotBytes)
}

// TestChaosElasticJoinLeave exercises pure membership churn, no crash: a
// job starts on a registry seeded only at runtime with one slow worker;
// a fast worker joins mid-job (and must steal units), then the slow
// seed deregisters with units in flight (they re-queue without an
// attempt charge). The merge must match golden.
func TestChaosElasticJoinLeave(t *testing.T) {
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	slow := newProxy(t, startWorkerThrottled(t, 60*time.Millisecond).url, Script{})
	fast := newProxy(t, startWorker(t).url, Script{})

	exec, err := shard.New(chaosExecConfig(nil, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	if _, err := exec.Register(slow.URL(), time.Hour); err != nil {
		t.Fatal(err)
	}
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitSubmissions(t, slow, 1, 30*time.Second)
	if _, err := exec.Register(fast.URL(), time.Hour); err != nil {
		t.Fatal(err)
	}
	waitSubmissions(t, fast, 1, 30*time.Second)
	if !exec.Deregister(slow.URL()) {
		t.Fatal("slow worker was not a member at deregistration")
	}
	fin := waitTerminal(t, coord, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("churned job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord.Result(st.ID)
	if !ok {
		t.Fatal("churned job has no result bytes")
	}
	assertIdentical(t, "elastic join/leave", wantHash, wantBytes, fin.ResultHash, data)
	if len(fast.SubmittedIDs()) == 0 {
		t.Error("late-joining worker never received a unit")
	}
}

// waitSubmissions polls until the proxy has forwarded at least n
// accepted unit submissions.
func waitSubmissions(t *testing.T, p *Proxy, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for len(p.SubmittedIDs()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("proxy saw %d submissions, want ≥%d within %v", len(p.SubmittedIDs()), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
