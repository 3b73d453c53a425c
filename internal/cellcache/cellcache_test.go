package cellcache

import (
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

	"repro/internal/obs"
)

func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

func TestRoundTrip(t *testing.T) {
	mx := NewMetrics(obs.NewRegistry())
	s, err := Open(t.TempDir(), 0, 0, mx)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2, 3}, {4, 5, 6}}
	s.PutCell("w", key(1), want)
	got, ok := s.GetCell("w", key(1), 2, 3)
	if !ok {
		t.Fatal("stored column missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if _, ok := s.GetCell("w", key(2), 2, 3); ok {
		t.Fatal("absent key hit")
	}
	if h, m, st := mx.Hits.Value(), mx.Misses.Value(), mx.Stores.Value(); h != 1 || m != 1 || st != 1 {
		t.Fatalf("hits/misses/stores = %d/%d/%d, want 1/1/1", h, m, st)
	}
}

func TestRejectsInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../" + strings.Repeat("a", 61), strings.Repeat("a", 63),
	} {
		s.PutCell("w", k, [][]float64{{1}})
		if _, ok := s.GetCell("w", k, 1, 1); ok {
			t.Errorf("invalid key %q served a column", k)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("invalid keys reached the filesystem: %d entries", len(ents))
	}
}

// TestCorruptEntryDeletedNotServed pins the corruption blind-spot fix:
// a truncated or wrong-shape entry must be deleted, counted, and
// reported as a miss — never promoted.
func TestCorruptEntryDeletedNotServed(t *testing.T) {
	mx := NewMetrics(obs.NewRegistry())
	dir := t.TempDir()
	s, err := Open(dir, 0, 0, mx)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data string
	}{
		{"truncated", `[[1.0, 2.`},
		{"wrong-runs", `[[1,2]]`},        // one run where two are expected
		{"wrong-metrics", `[[1],[2,3]]`}, // second run has two metrics, want one
		{"not-an-array", `{"a":1}`},
	}
	for i, c := range cases {
		k := key(100 + i)
		if err := os.WriteFile(s.path(k), []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetCell("w", k, 2, 1); ok {
			t.Errorf("%s: corrupt entry served", c.name)
		}
		if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt entry not deleted", c.name)
		}
	}
	if got := mx.Corrupt.Value(); got != uint64(len(cases)) {
		t.Fatalf("corruption counter %d, want %d", got, len(cases))
	}
	if got := mx.Misses.Value(); got != uint64(len(cases)) {
		t.Fatalf("corrupt reads counted %d misses, want %d", got, len(cases))
	}
}

func TestEvictionBoundsEntries(t *testing.T) {
	mx := NewMetrics(obs.NewRegistry())
	s, err := Open(t.TempDir(), 8, 0, mx)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct mtimes make the oldest-first order deterministic enough to
	// assert the newest entries survive.
	for i := 0; i < sweepEvery+8; i++ {
		s.PutCell("w", key(i), [][]float64{{float64(i)}})
		if i%16 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	s.sweep()
	if n := s.Len(); n > 8 {
		t.Fatalf("store holds %d entries after sweep, want <= 8", n)
	}
	if mx.Evicted.Value() == 0 {
		t.Fatal("eviction sweep counted nothing")
	}
	// The most recently written column must still be resident.
	if _, ok := s.GetCell("w", key(sweepEvery+7), 1, 1); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestPutFailureIsSilent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.dir = filepath.Join(dir, "missing")
	s.PutCell("w", key(1), [][]float64{{1}}) // must not panic
	if _, ok := s.GetCell("w", key(1), 1, 1); ok {
		t.Fatal("failed Put served a column")
	}
}

func TestPerWorkloadAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	mx := NewMetrics(reg)
	s, err := Open(t.TempDir(), 0, 0, mx)
	if err != nil {
		t.Fatal(err)
	}
	s.PutCell("kmeans", key(1), [][]float64{{1}})
	s.GetCell("kmeans", key(1), 1, 1) // hit
	s.GetCell("kmeans", key(2), 1, 1) // miss
	s.GetCell("kmeans", key(1), 1, 1) // hit
	s.GetCell("bayes", key(3), 1, 1)  // miss
	s.GetCell("", key(1), 1, 1)       // hit, attributed to "unknown"

	st := s.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Stores != 1 {
		t.Fatalf("stats hits/misses/stores = %d/%d/%d", st.Hits, st.Misses, st.Stores)
	}
	if len(st.ByWorkload) != 3 {
		t.Fatalf("by-workload rows = %d, want 3: %+v", len(st.ByWorkload), st.ByWorkload)
	}
	// Sorted by workload name: bayes, kmeans, unknown.
	rows := st.ByWorkload
	if rows[0].Workload != "bayes" || rows[0].Misses != 1 || rows[0].HitRatio != 0 {
		t.Fatalf("bayes row = %+v", rows[0])
	}
	if rows[1].Workload != "kmeans" || rows[1].Hits != 2 || rows[1].Misses != 1 {
		t.Fatalf("kmeans row = %+v", rows[1])
	}
	if got, want := rows[1].HitRatio, 2.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("kmeans hit ratio = %v, want %v", got, want)
	}
	if rows[2].Workload != "unknown" || rows[2].Hits != 1 {
		t.Fatalf("unknown row = %+v", rows[2])
	}
	if st.Entries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("entries/disk = %d/%d", st.Entries, st.DiskBytes)
	}
}

func TestOpenRegistersCapacityGauges(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), 0, 0, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	s.PutCell("w", key(1), [][]float64{{1, 2}})
	if v, ok := reg.ReadScalar("bd_cellcache_entries"); !ok || v != 1 {
		t.Fatalf("bd_cellcache_entries = %v,%v", v, ok)
	}
	if v, ok := reg.ReadScalar("bd_cellcache_disk_bytes"); !ok || v <= 0 {
		t.Fatalf("bd_cellcache_disk_bytes = %v,%v", v, ok)
	}
}

func TestMaxAgeSweep(t *testing.T) {
	dir := t.TempDir()
	mx := NewMetrics(obs.NewRegistry())
	s, err := Open(dir, 0, time.Hour, mx)
	if err != nil {
		t.Fatal(err)
	}
	s.PutCell("w", key(1), [][]float64{{1}})
	s.PutCell("w", key(2), [][]float64{{2}})
	// Age one entry past the bound by rewinding its mtime.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(s.path(key(1)), old, old); err != nil {
		t.Fatal(err)
	}
	s.sweep()
	if _, ok := s.GetCell("w", key(1), 1, 1); ok {
		t.Fatal("expired entry survived the age sweep")
	}
	if _, ok := s.GetCell("w", key(2), 1, 1); !ok {
		t.Fatal("fresh entry was evicted")
	}
	if mx.Evicted.Value() != 1 {
		t.Fatalf("evicted = %d, want 1", mx.Evicted.Value())
	}

	// Reopening with an age bound sweeps immediately.
	if err := os.Chtimes(s.path(key(2)), old, old); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0, time.Hour, NewMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n != 0 {
		t.Fatalf("reopen with max-age left %d entries, want 0", n)
	}
}

// TestSweepSparesForeignFiles pins that the store touches only its own
// files: <key>.json entries and fsio's <key>.json.tmp* leftovers. A
// foreign file or an operator's notes sharing the directory survive both the
// max-age sweep at Open and a capacity sweep, and Len does not count
// them.
func TestSweepSparesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * time.Hour)
	foreign := []string{"journal.ndjson", "notes.txt", key(9) + ".json.bak", "results"}
	for _, name := range foreign[:3] {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("keep me\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, foreign[3]), 0o755); err != nil {
		t.Fatal(err)
	}
	// A stale entry and a stale write leftover are the store's own: the
	// age sweep at Open reclaims both.
	for _, name := range []string{key(1) + ".json", key(2) + ".json.tmp123"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("[[1]]"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	mx := NewMetrics(obs.NewRegistry())
	s, err := Open(dir, 2, time.Hour, mx)
	if err != nil {
		t.Fatal(err)
	}
	if got := mx.Evicted.Value(); got != 2 {
		t.Fatalf("age sweep at Open evicted %d files, want 2 (the stale entry and leftover)", got)
	}
	for i := 0; i < sweepEvery; i++ {
		s.PutCell("w", key(100+i), [][]float64{{float64(i)}})
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len after the capacity sweep = %d, want 2 (foreign files counted?)", n)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign %s did not survive the sweeps: %v", name, err)
		}
	}
	var own int64
	for i := 0; i < sweepEvery; i++ {
		if info, err := os.Stat(s.path(key(100 + i))); err == nil {
			own += info.Size()
		}
	}
	if got := s.DiskBytes(); got != own {
		t.Fatalf("DiskBytes = %d, want %d (the two resident entries only)", got, own)
	}
}

// TestByteLevelGetPut covers the byte-level API the result tier uses:
// job-ID keys (32 hex digits) round-trip, Put reports write failures,
// and an entry the caller's check rejects is deleted and counted.
func TestByteLevelGetPut(t *testing.T) {
	mx := NewMetrics(obs.NewRegistry())
	dir := t.TempDir()
	s, err := Open(dir, 0, 0, mx)
	if err != nil {
		t.Fatal(err)
	}
	id := strings.Repeat("ab", 16)
	if err := s.Put(id, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(id, json.Valid); !ok || string(got) != `{"x":1}` {
		t.Fatalf("Get = %q,%v", got, ok)
	}
	if !s.Has(id) || s.Has(strings.Repeat("cd", 16)) || s.Has("../"+id[3:]) {
		t.Fatal("Has disagrees with the store's contents")
	}
	if err := s.Put("../"+id[3:], []byte(`{}`)); err == nil {
		t.Fatal("Put accepted an invalid key")
	}
	if _, ok := s.Get(id, func([]byte) bool { return false }); ok {
		t.Fatal("rejected entry served")
	}
	if _, err := os.Stat(s.path(id)); !os.IsNotExist(err) || s.Has(id) {
		t.Fatal("rejected entry not deleted")
	}
	if mx.Corrupt.Value() != 1 {
		t.Fatalf("corrupt = %d, want 1", mx.Corrupt.Value())
	}
	s.dir = filepath.Join(dir, "missing")
	if err := s.Put(id, []byte(`{}`)); err == nil {
		t.Fatal("Put into a missing directory reported no error")
	}
}

// TestDelete: Delete removes exactly the named entry, reports whether
// one was there, and refuses keys that are not store keys.
func TestDelete(t *testing.T) {
	s, err := Open(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Put(key(i), []byte("[]")); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Delete(key(1)) {
		t.Fatal("Delete of a stored entry reported nothing removed")
	}
	if s.Has(key(1)) || !s.Has(key(2)) {
		t.Fatal("Delete removed the wrong entry")
	}
	if s.Delete(key(1)) || s.Delete(key(3)) || s.Delete("../"+key(2)[3:]) {
		t.Fatal("Delete reported removing an absent entry or an invalid key")
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len after Delete = %d, want 1", n)
	}
}

// TestKeys: Keys lists exactly the store's entries — neither write
// leftovers nor foreign files.
func TestKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Keys(); len(got) != 0 {
		t.Fatalf("Keys of an empty store = %v", got)
	}
	id := strings.Repeat("ab", 16)
	for _, k := range []string{key(1), id} {
		if err := s.Put(k, []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{key(2) + ".json.tmp1", "notes.txt", key(3) + ".json.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Keys()
	sort.Strings(got)
	if want := []string{key(1), id}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

// TestConcurrentGetPutSweep runs lookups and stores from several
// goroutines against a small store, so capacity sweeps run beside Get
// and Put (run it under -race). Every hit must be a whole column, and a
// final sweep brings the store back to its bound.
func TestConcurrentGetPutSweep(t *testing.T) {
	mx := NewMetrics(obs.NewRegistry())
	s, err := Open(t.TempDir(), 8, 0, mx)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 2 * sweepEvery
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := key(i % 24)
				s.PutCell("w", k, [][]float64{{float64(i % 24), 1}})
				if vecs, ok := s.GetCell("w", key((i+g)%24), 1, 2); ok && vecs[0][1] != 1 {
					t.Errorf("torn column %v", vecs)
				}
			}
		}(g)
	}
	wg.Wait()
	if mx.Corrupt.Value() != 0 {
		t.Fatalf("concurrent use read %d corrupt entries", mx.Corrupt.Value())
	}
	if mx.Evicted.Value() == 0 {
		t.Fatal("no sweep ran during the concurrent stores")
	}
	s.sweep()
	if n := s.Len(); n > 8 {
		t.Fatalf("store holds %d entries after a sweep, want <= 8", n)
	}
}
