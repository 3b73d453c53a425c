package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeExec is an instant deterministic executor: result bytes depend only
// on the normalized spec, mirroring the real pipeline's contract. Specs
// with Cluster.Seed == failSeed fail instead.
const failSeed = 99

func fakeExec(delay time.Duration) ExecuteFunc {
	return func(ctx context.Context, spec JobSpec, progress core.Progress) ([]byte, error) {
		if delay > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		if spec.Cluster.Seed == failSeed {
			return nil, fmt.Errorf("synthetic executor failure")
		}
		id, err := spec.id()
		if err != nil {
			return nil, err
		}
		// Valid JSON: the real pipeline emits canonical JSON, and the disk
		// cache deletes anything that isn't as corruption.
		return []byte(`{"result":"` + id + `"}` + "\n"), nil
	}
}

func TestRecordsReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir: filepath.Join(dir, "data"),
		Execute: fakeExec(0),
	}

	m1 := newTestManager(t, cfg)
	okSpec := tinySpec()
	st, err := m1.Submit(okSpec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m1, st.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	res1, ok := m1.Result(st.ID)
	if !ok {
		t.Fatal("no result for done job")
	}

	badSpec := tinySpec()
	badSpec.Cluster.Seed = failSeed
	stBad, err := m1.Submit(badSpec)
	if err != nil {
		t.Fatal(err)
	}
	finBad := waitTerminal(t, m1, stBad.ID, 10*time.Second)
	if finBad.State != StateFailed {
		t.Fatalf("bad job finished %s, want failed", finBad.State)
	}
	m1.Close()

	// Restart: both records are read back; the done job's result is
	// served straight from the disk cache.
	m2 := newTestManager(t, cfg)
	got, ok := m2.Get(st.ID)
	if !ok {
		t.Fatal("done job record lost across restart")
	}
	if got.State != StateDone || got.ResultHash != fin.ResultHash {
		t.Fatalf("replayed job: state=%s hash=%s, want done/%s", got.State, got.ResultHash, fin.ResultHash)
	}
	res2, ok := m2.Result(st.ID)
	if !ok || !bytes.Equal(res1, res2) {
		t.Fatal("replayed job's result not served (or bytes differ)")
	}
	gotBad, ok := m2.Get(stBad.ID)
	if !ok {
		t.Fatal("failed job record lost across restart")
	}
	if gotBad.State != StateFailed || gotBad.Error == "" {
		t.Fatalf("replayed failed job: state=%s error=%q", gotBad.State, gotBad.Error)
	}
	list := m2.List()
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != stBad.ID {
		t.Fatalf("replayed list order wrong: %+v", list)
	}

	// The replayed job's event stream ends with a terminal event.
	j, ok := m2.job(st.ID)
	if !ok {
		t.Fatal("job missing")
	}
	evs, _, done := j.EventsSince(0)
	if !done || len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("replayed event stream not terminal: done=%v events=%+v", done, evs)
	}

	// Identical resubmission after restart is an immediate cache hit.
	st3, err := m2.Submit(okSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.CacheHit || st3.State != StateDone || st3.ResultHash != fin.ResultHash {
		t.Fatalf("post-restart resubmission: cacheHit=%v state=%s hash=%s",
			st3.CacheHit, st3.State, st3.ResultHash)
	}
}

// recordIDs lists the job IDs that have a record file under dataDir.
func recordIDs(t *testing.T, dataDir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dataDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range ents {
		ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(ids)
	return ids
}

// listIDs is the retained job map's IDs, sorted.
func listIDs(m *Manager) []string {
	var ids []string
	for _, st := range m.List() {
		ids = append(ids, st.ID)
	}
	sort.Strings(ids)
	return ids
}

// TestJournalCompactsPeriodically: the job records are the journal, and
// a long-running daemon keeps it compact in flight — eviction past
// MaxJobs deletes the evicted jobs' records, so the records directory
// holds exactly the retained job map, and the next boot reads it back.
func TestJournalCompactsPeriodically(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Execute: fakeExec(0), MaxJobs: 3}
	m1 := newTestManager(t, cfg)
	var last string
	for i := 0; i < 6; i++ {
		spec := tinySpec()
		spec.Cluster.Seed = uint64(100 + i)
		st, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m1, st.ID, 10*time.Second)
		last = st.ID
	}
	if got, want := recordIDs(t, dir), listIDs(m1); len(want) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("records %v, retained jobs %v: want the same 3", got, want)
	}
	m1.Close()

	m2 := newTestManager(t, cfg)
	if got, ok := m2.Get(last); !ok || got.State != StateDone {
		t.Fatalf("newest job lost after in-flight eviction: ok=%v state=%v", ok, got.State)
	}
}

// TestJournalCompactsOnBoot: a restart with a smaller MaxJobs trims the
// restored job map at boot and deletes the trimmed jobs' records, keeping
// the newest. Only terminal jobs are trimmed: a queued record whose file
// is the oldest on disk, booted with fewer MaxJobs+QueueDepth+Workers
// than there are records, is still re-adopted.
func TestJournalCompactsOnBoot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Execute: fakeExec(0), MaxJobs: 5}
	m1 := newTestManager(t, cfg)
	var last string
	for i := 0; i < 5; i++ {
		spec := tinySpec()
		spec.Cluster.Seed = uint64(100 + i)
		st, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m1, st.ID, 10*time.Second)
		last = st.ID
	}
	if got := recordIDs(t, dir); len(got) != 5 {
		t.Fatalf("records before restart: %v, want 5", got)
	}
	m1.Close()

	// A job a crash left queued, submitted before all of the above.
	spec, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	spec.Cluster.Seed = 200
	queued, err := spec.id()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(jobRecord{Spec: spec, State: StateQueued, Created: time.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", queued+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	cfg.MaxJobs, cfg.QueueDepth, cfg.Workers = 2, 1, 1
	cfg.Execute = func(ctx context.Context, _ JobSpec, _ core.Progress) ([]byte, error) {
		<-ctx.Done() // keep the re-adopted job live until shutdown
		return nil, ctx.Err()
	}
	m2 := newTestManager(t, cfg)
	// The live job counts against MaxJobs, so one terminal job stays.
	if got, want := recordIDs(t, dir), listIDs(m2); len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a restart with MaxJobs 2: records %v, retained jobs %v", got, want)
	}
	if _, ok := m2.Get(last); !ok {
		t.Fatal("newest job trimmed at boot")
	}
	if st, ok := m2.Get(queued); !ok || st.State.terminal() {
		t.Fatalf("queued job not re-adopted: ok=%v state=%v", ok, st.State)
	}
}

// TestLiveRecordsOutliveSmallerQueue: a boot whose queue cannot hold
// every job a crash left live re-adopts what fits and keeps the other
// records on disk, so a later boot with a deeper queue re-adopts and
// finishes them all; no live record is deleted at boot.
func TestLiveRecordsOutliveSmallerQueue(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		spec, err := tinySpec().Normalized()
		if err != nil {
			t.Fatal(err)
		}
		spec.Cluster.Seed = uint64(300 + i)
		id, err := spec.id()
		if err != nil {
			t.Fatal(err)
		}
		state := StateQueued
		if i == 0 {
			state = StateRunning
		}
		data, err := json.Marshal(jobRecord{Spec: spec, State: state, Created: time.Now().Add(time.Duration(i-10) * time.Minute)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	all := append([]string(nil), ids...)
	sort.Strings(all)

	cfg := Config{DataDir: dir, QueueDepth: 1, Workers: 1}
	cfg.Execute = func(ctx context.Context, _ JobSpec, _ core.Progress) ([]byte, error) {
		<-ctx.Done() // keep the re-adopted job live until shutdown
		return nil, ctx.Err()
	}
	m1 := newTestManager(t, cfg)
	if got := listIDs(m1); len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("QueueDepth 1 re-adopted %v, want the oldest record %s", got, ids[0])
	}
	if got := recordIDs(t, dir); !reflect.DeepEqual(got, all) {
		t.Fatalf("records after a QueueDepth 1 boot: %v, want all of %v", got, all)
	}
	m1.Close()

	cfg.QueueDepth, cfg.Execute = 3, fakeExec(0)
	m2 := newTestManager(t, cfg)
	if got := listIDs(m2); !reflect.DeepEqual(got, all) {
		t.Fatalf("QueueDepth 3 re-adopted %v, want %v", got, all)
	}
	for _, id := range ids {
		fin := waitTerminal(t, m2, id, 10*time.Second)
		if want := hashBytes([]byte(`{"result":"` + id + `"}` + "\n")); fin.State != StateDone || fin.ResultHash != want {
			t.Fatalf("job %s finished %s with hash %s, want done with %s", id, fin.State, fin.ResultHash, want)
		}
	}
}

// TestCacheHitWritesNoRecord: a submission the result cache answers —
// joining a done job, or born done after that job's record was evicted —
// writes no job record.
func TestCacheHitWritesNoRecord(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{DataDir: dir, Execute: fakeExec(0), MaxJobs: 1})
	specs := []JobSpec{tinySpec(), tinySpec()}
	specs[1].Cluster.Seed = 2001
	for _, spec := range specs {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, m, st.ID, 10*time.Second); fin.State != StateDone {
			t.Fatalf("job finished %s", fin.State)
		}
	}
	puts := m.records.store.Stats().Stores
	if puts != 4 {
		t.Fatalf("two computed jobs put %d records, want 4 (queued + done each)", puts)
	}
	// specs[1] is retained and done; specs[0]'s record was evicted, so
	// resubmitting it is born done from the result store.
	for i := 0; i < 3; i++ {
		for _, spec := range specs {
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !st.CacheHit || st.State != StateDone {
				t.Fatalf("resubmission not a cache hit: %+v", st)
			}
		}
	}
	if got := m.records.store.Stats().Stores; got != puts {
		t.Fatalf("cache-hit resubmissions put %d job records", got-puts)
	}
	if v, _ := m.reg.ReadScalar("bd_job_record_writes_total"); v != float64(puts) {
		t.Fatalf("bd_job_record_writes_total = %v, want %d", v, puts)
	}
}

// TestConcurrentSubmitsWriteOneRecordEach: identical and distinct
// submissions racing over a record store (run it under -race) write
// exactly one queued and one done record per job — an identical
// submission waits for the record being written instead of writing its
// own — and leave exactly one record file per job.
func TestConcurrentSubmitsWriteOneRecordEach(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{DataDir: dir, Execute: fakeExec(20 * time.Millisecond), Workers: 2})
	const distinct, copies = 4, 6
	ids := make([]string, distinct*copies)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := tinySpec()
			spec.Cluster.Seed = uint64(500 + i%distinct)
			st, err := m.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[:distinct] {
		if st := waitTerminal(t, m, id, 10*time.Second); st.State != StateDone {
			t.Fatalf("job %s finished %s", id, st.State)
		}
	}
	if got := m.records.store.Stats().Stores; got != 2*distinct {
		t.Errorf("%d jobs put %d records, want %d", distinct, got, 2*distinct)
	}
	if got := recordIDs(t, dir); len(got) != distinct {
		t.Errorf("record files %v, want %d", got, distinct)
	}
}

func TestMaxJobsEvictsOldestTerminal(t *testing.T) {
	m := newTestManager(t, Config{Execute: fakeExec(0), MaxJobs: 3})
	var ids []string
	for i := 0; i < 6; i++ {
		spec := tinySpec()
		spec.Cluster.Seed = uint64(100 + i)
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, st.ID, 10*time.Second)
		ids = append(ids, st.ID)
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("job map holds %d records, want 3", len(list))
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest job record survived past MaxJobs")
	}
	if _, ok := m.Get(ids[5]); !ok {
		t.Error("newest job record evicted")
	}
	// An evicted done job's result is still served from the cache.
	if _, ok := m.Result(ids[0]); !ok {
		t.Error("evicted done job's result vanished from the cache")
	}
	// …and an identical resubmission replays as a fresh born-done record.
	spec := tinySpec()
	spec.Cluster.Seed = 100
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit || st.State != StateDone {
		t.Errorf("evicted job resubmission: cacheHit=%v state=%s", st.CacheHit, st.State)
	}
}

func TestMaxJobsNeverEvictsLiveJobs(t *testing.T) {
	m := newTestManager(t, Config{Execute: fakeExec(time.Second), MaxJobs: 1, Workers: 1})
	for i := 0; i < 3; i++ {
		spec := tinySpec()
		spec.Cluster.Seed = uint64(200 + i)
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	// All three are live (one running, two queued): none may be evicted
	// even though MaxJobs is 1.
	if got := len(m.List()); got != 3 {
		t.Fatalf("live job records evicted: %d of 3 remain", got)
	}
	// As jobs finish they become evictable; once all three have executed
	// (3 cache stores) the map must be trimmed back to the bound.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if m.CacheStats().Stores == 3 && len(m.List()) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job map not trimmed after completion: %d records, %d stores",
		len(m.List()), m.CacheStats().Stores)
}

// TestConcurrentSubmitIdenticalSpec is the regression test for the old
// Submit holding m.mu across the disk-tier cache read: a stampede of
// identical submissions must coalesce into exactly one execution, with
// every submitter getting the same job ID, and concurrent distinct
// submissions must proceed without serializing into errors.
func TestConcurrentSubmitIdenticalSpec(t *testing.T) {
	m := newTestManager(t, Config{Execute: fakeExec(50 * time.Millisecond), Workers: 2, QueueDepth: 64})

	const n = 24
	var wg sync.WaitGroup
	idCh := make(chan string, n)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := m.Submit(tinySpec())
			if err != nil {
				errCh <- err
				return
			}
			idCh <- st.ID
		}()
	}
	wg.Wait()
	close(idCh)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var id string
	for got := range idCh {
		if id == "" {
			id = got
		} else if got != id {
			t.Fatalf("identical submissions got different IDs: %s vs %s", got, id)
		}
	}
	waitTerminal(t, m, id, 10*time.Second)
	if stores := m.CacheStats().Stores; stores != 1 {
		t.Errorf("identical submission stampede executed %d times, want 1", stores)
	}

	// Distinct specs submitted concurrently all complete independently.
	var wg2 sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			spec := tinySpec()
			spec.Cluster.Seed = uint64(300 + i)
			st, err := m.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg2.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("a concurrent distinct submission failed")
		}
		if st := waitTerminal(t, m, id, 10*time.Second); st.State != StateDone {
			t.Fatalf("job %s finished %s", id, st.State)
		}
	}
}
