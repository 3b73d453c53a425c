package service

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
)

func TestValidID(t *testing.T) {
	good := strings.Repeat("0123456789abcdef", 2)
	if !validID(good) {
		t.Errorf("validID(%q) = false, want true", good)
	}
	bad := []string{
		"",
		"short",
		good + "00",                   // too long
		strings.ToUpper(good),         // uppercase hex
		"../secret",                   // traversal
		"..%2Fsecret",                 // still-encoded traversal
		strings.Repeat("0", 31) + "/", // separator
		strings.Repeat("0", 31) + ".", // dot
		strings.Repeat("0", 31) + "g", // non-hex
		"/" + strings.Repeat("0", 31), // absolute
		strings.Repeat("0", 15) + "\x00" + strings.Repeat("0", 16), // NUL
	}
	for _, id := range bad {
		if validID(id) {
			t.Errorf("validID(%q) = true, want false", id)
		}
	}
}

// TestResultRejectsPathTraversal plants a JSON file next to the data dir
// and verifies that an encoded-slash job ID cannot read it — neither
// through the HTTP result endpoint (Go 1.22 ServeMux keeps %2F inside a
// path segment and PathValue unescapes it) nor through the cache directly.
func TestResultRejectsPathTraversal(t *testing.T) {
	tmp := t.TempDir()
	secret := []byte(`{"secret":"do-not-serve"}`)
	if err := os.WriteFile(filepath.Join(tmp, "secret.json"), secret, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, m := newTestServer(t, Config{DataDir: filepath.Join(tmp, "data")})

	for _, path := range []string{
		"/v1/jobs/..%2Fsecret/result",
		"/v1/jobs/..%2F..%2Fsecret/result",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, http.StatusNotFound)
		}
	}

	if _, _, ok := m.cache.Get("../secret"); ok {
		t.Error("cache.Get served a traversal ID from disk")
	}
	if st := m.CacheStats(); st.Entries != 0 {
		t.Errorf("traversal probe inserted %d cache entries", st.Entries)
	}
}

// TestPutDiskFailureRollsBack verifies that a failed disk write leaves no
// tier holding the result: a job whose result could not be persisted must
// not be replayable as a cached success.
func TestPutDiskFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	c, err := newResultCache(4, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Writes now fail (ENOENT): the results directory is gone.
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}

	id := strings.Repeat("ab", 16)
	if _, err := c.Put(id, []byte(`{"x":1}`)); err == nil {
		t.Fatal("Put succeeded despite unwritable disk tier")
	}
	if _, _, ok := c.Get(id); ok {
		t.Error("failed Put left a servable memory entry")
	}
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Errorf("failed Put counted stores=%d entries=%d, want 0/0", st.Stores, st.Entries)
	}
}

// TestPutStoresExactSize checks that every entry Put stores has no spare
// capacity, whatever buffer the caller hands it, and holds the same bytes.
func TestPutStoresExactSize(t *testing.T) {
	c, err := newResultCache(4, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	put := func(id string, data []byte) {
		t.Helper()
		if _, err := c.Put(id, data); err != nil {
			t.Fatal(err)
		}
		want[id] = string(data)
	}
	grown := append([]byte(nil), `{"grown":`...) // append's growth leaves spare capacity
	grown = append(grown, strings.Repeat("7", 1000)+"}"...)
	put(strings.Repeat("01", 16), grown)
	put(strings.Repeat("02", 16), append(make([]byte, 0, 64), `{"x":2}`...))
	put(strings.Repeat("03", 16), []byte(`{"x":3}`))
	put(strings.Repeat("02", 16), append(make([]byte, 0, 64), `{"x":22}`...)) // replaces in place
	if c.ll.Len() != len(want) {
		t.Fatalf("%d entries, want %d", c.ll.Len(), len(want))
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if cap(ent.data) != len(ent.data) {
			t.Errorf("entry %s: cap %d, len %d", ent.id, cap(ent.data), len(ent.data))
		}
		if string(ent.data) != want[ent.id] {
			t.Errorf("entry %s holds %q, want %q", ent.id, ent.data, want[ent.id])
		}
	}
}

// TestSubmitReexecutesWhenResultEvicted covers the memory-only eviction
// corner: a done job whose result bytes were displaced from a 1-entry LRU
// must be re-executed on resubmission, not reported as a cache hit whose
// result endpoint would then 404.
func TestSubmitReexecutesWhenResultEvicted(t *testing.T) {
	m := newTestManager(t, Config{CacheEntries: 1, Parallelism: 2})

	specA := tinySpec()
	specB := tinySpec()
	specB.Suite.Seed, specB.Cluster.Seed = 23, 23

	stA, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, stA.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("job A finished %s: %s", fin.State, fin.Error)
	}
	stB, err := m.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, stB.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("job B finished %s: %s", fin.State, fin.Error)
	}

	// B's result displaced A's from the single-entry LRU; there is no
	// disk tier to fall back to.
	if _, ok := m.Result(stA.ID); ok {
		t.Fatal("evicted result still servable; test premise broken")
	}

	st, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("resubmission after eviction reported a cache hit")
	}
	if fin := waitTerminal(t, m, st.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("re-executed job finished %s: %s", fin.State, fin.Error)
	}
	if _, ok := m.Result(st.ID); !ok {
		t.Error("re-executed job has no servable result")
	}
}

// TestResultStoreEvictsOldestPastBound: the disk half of the result tier
// is bounded by cellcache.DefaultMaxEntries, by write recency. A store
// past its bound loses its oldest result (counted in
// bd_cache_disk_evictions_total), boot does not resurrect that job's done
// record, and resubmitting it re-executes to the same hash.
func TestResultStoreEvictsOldestPastBound(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{DataDir: dir, CacheEntries: 1, Parallelism: 2})
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m1, st.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	m1.Close()

	// Age the job's result, then fill the store to its bound with newer
	// entries: one entry past the bound, and the job's is the oldest.
	results := filepath.Join(dir, "results")
	own := filepath.Join(results, st.ID+".json")
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(own, old, old); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cellcache.DefaultMaxEntries; i++ {
		if err := os.WriteFile(filepath.Join(results, fmt.Sprintf("%032x.json", i)), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Opening the store sweeps it back to its bound.
	reg := obs.NewRegistry()
	m2 := newTestManager(t, Config{DataDir: dir, CacheEntries: 1, Parallelism: 2, Registry: reg})
	if _, err := os.Stat(own); !os.IsNotExist(err) {
		t.Fatalf("oldest result survived a store past its bound: %v", err)
	}
	if ents, _ := os.ReadDir(results); len(ents) != cellcache.DefaultMaxEntries {
		t.Fatalf("store holds %d entries, want %d", len(ents), cellcache.DefaultMaxEntries)
	}
	if v, ok := reg.ReadScalar("bd_cache_disk_evictions_total"); !ok || v != 1 {
		t.Fatalf("bd_cache_disk_evictions_total = %v (found %v), want 1", v, ok)
	}
	if cs := m2.CacheStats(); cs.DiskEvictions != 1 {
		t.Fatalf("cache stats disk_evictions = %d, want 1", cs.DiskEvictions)
	}
	// The job's done record was on disk, but its result is gone: boot
	// must not advertise a hash nobody can serve, and deletes the record.
	if st, ok := m2.Get(st.ID); ok {
		t.Fatalf("boot restored a done record without its result: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", st.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("done record without a result kept at boot: %v", err)
	}
	if _, ok := m2.Result(st.ID); ok {
		t.Fatal("evicted result served")
	}
	st2, err := m2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit {
		t.Fatal("evicted result replayed as a cache hit")
	}
	fin2 := waitTerminal(t, m2, st2.ID, 60*time.Second)
	if fin2.State != StateDone || fin2.ResultHash != fin.ResultHash {
		t.Fatalf("re-execution finished %s with hash %s, want done with %s", fin2.State, fin2.ResultHash, fin.ResultHash)
	}
	if _, err := os.Stat(own); err != nil {
		t.Fatalf("re-executed result not stored: %v", err)
	}
}

// TestEvictedResultForgetsDoneRecord: when a done job's result leaves
// every tier while its record is still kept — displaced from the LRU,
// then swept from the bounded disk tier — GET result and GET status
// agree: both report the job unknown, status does so before any result
// fetch and without counting a cache request, and a resubmission
// re-executes it to the same hash.
func TestEvictedResultForgetsDoneRecord(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{DataDir: dir, CacheEntries: 1, Parallelism: 2})
	specB := tinySpec()
	specB.Suite.Seed, specB.Cluster.Seed = 23, 23
	var first, second JobStatus
	for i, spec := range []JobSpec{tinySpec(), specB} {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitTerminal(t, m, st.ID, 60*time.Second)
		if fin.State != StateDone {
			t.Fatalf("job %d finished %s: %s", i, fin.State, fin.Error)
		}
		if i == 0 {
			first = fin
		} else {
			second = fin
		}
	}
	// B displaced A from the 1-entry LRU; remove A's disk copy as the
	// store's entry-bound sweep would.
	if err := os.Remove(filepath.Join(dir, "results", first.ID+".json")); err != nil {
		t.Fatal(err)
	}
	before := m.CacheStats()
	if st, ok := m.Get(first.ID); ok {
		t.Fatalf("status reports %s with hash %s after its result left every tier", st.State, st.ResultHash)
	}
	if st, ok := m.Get(second.ID); !ok || st.State != StateDone {
		t.Fatalf("job B, whose result the LRU holds, reported %+v (found %v), want done", st, ok)
	}
	if after := m.CacheStats(); after != before {
		t.Fatalf("status polls moved the cache counters: %+v -> %+v", before, after)
	}

	if _, ok := m.Result(first.ID); ok {
		t.Fatal("evicted result served")
	}
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("resubmission after eviction reported a cache hit")
	}
	fin := waitTerminal(t, m, st.ID, 60*time.Second)
	if fin.State != StateDone || fin.ResultHash != first.ResultHash {
		t.Fatalf("re-execution finished %s with hash %s, want done with %s", fin.State, fin.ResultHash, first.ResultHash)
	}
	if _, ok := m.Result(st.ID); !ok {
		t.Error("re-executed job has no servable result")
	}
}

// TestCorruptResultDeletedAndCounted: a result file that is not JSON is
// deleted on read, counted in bd_cache_corrupt_total and served as a
// miss, so the job re-executes instead of replaying garbage.
func TestCorruptResultDeletedAndCounted(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{DataDir: dir, Parallelism: 2, Registry: reg})
	norm, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	id, err := norm.id()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results", id+".json")
	if err := os.WriteFile(path, []byte(`{"truncated":`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := m.Result(id); ok {
		t.Fatal("corrupt result served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt result not deleted: %v", err)
	}
	if v, ok := reg.ReadScalar("bd_cache_corrupt_total"); !ok || v != 1 {
		t.Fatalf("bd_cache_corrupt_total = %v (found %v), want 1", v, ok)
	}
	if cs := m.CacheStats(); cs.Corrupt != 1 || cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("cache stats corrupt/misses/hits = %d/%d/%d, want 1/1/0", cs.Corrupt, cs.Misses, cs.Hits)
	}
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("submission after corruption reported a cache hit")
	}
	if fin := waitTerminal(t, m, st.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("re-executed job finished %s: %s", fin.State, fin.Error)
	}
}
