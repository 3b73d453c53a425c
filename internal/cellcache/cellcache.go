// Package cellcache is the daemons' one content-addressed disk store:
// one file per key, written atomically and fsynced (fsio), validated on
// read (an entry the caller's check rejects is deleted and counted, so a
// corrupt file only ever costs a recompute), and bounded by an mtime
// sweep over entry count and, optionally, age.
//
// A daemon keeps up to three stores of this type. Its result tier keeps
// canonical job results under <data-dir>/results, keyed by job ID (32
// hex digits). Its job records live under <data-dir>/jobs, one per
// retained job, keyed by job ID too, in a store opened Unbounded: the
// job map deletes its own records. Its cell cache keeps one
// workload×node *column* of the characterization grid (the per-run
// metric vectors of one workload on one absolute node) per entry, keyed
// by the full SHA-256 of the column's canonical cell-key spec (64 hex
// digits, see cluster.CellKey);
// GetCell and PutCell are that column format on top of Get and Put. Both
// daemons reach their cell cache through one unit core
// (service.RunUnits): it probes every column of a job once before the
// grid runs and writes each unit's missed columns back as soon as the
// unit is in. A bdservd runs the job as one unit, so the grid simulates
// only the columns the probe missed; a bdcoord assembles a fully cached
// unit itself and never dispatches it. A cached column is exactly the
// vectors a recomputation would produce.
//
// Lookups carry the workload name purely for attribution: the
// bd_cellcache_requests_total{workload,result} family and the
// per-workload hit-ratio table on /v1/status, the signal sweep planners
// use to see which workloads actually share cells across campaigns.
// Label cardinality is bounded by the resolved workload registry — names
// reach here only after spec normalization resolved them.
package cellcache

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fsio"
	"repro/internal/obs"
)

// DefaultMaxEntries bounds the store when the caller does not: at one
// file per workload×node column, 4096 entries cover ~93 full 44-workload
// paper grids before eviction starts.
const DefaultMaxEntries = 4096

// Unbounded, as Open's maxEntries with no age bound, turns the sweep off:
// for a store whose owner deletes every entry it no longer needs (the
// job records), so no write-recency rule ever picks an entry to drop.
const Unbounded = math.MaxInt

// sweepEvery is how many stores may land between eviction sweeps. The
// bound is enforced in batches — a directory listing per store would turn
// every Put into O(entries).
const sweepEvery = 64

// Metrics is the counter storage behind the bd_cellcache_* families.
type Metrics struct {
	Hits    *obs.Counter
	Misses  *obs.Counter
	Stores  *obs.Counter
	Corrupt *obs.Counter
	Evicted *obs.Counter
	// Requests attributes every lookup to its workload:
	// bd_cellcache_requests_total{workload,result="hit"|"miss"}.
	Requests *obs.CounterVec

	reg *obs.Registry // for the per-store gauge-funcs Open registers
}

// NewMetrics registers the cell-cache counters on reg. Register at most
// once per registry: bdservd wires the worker-local store's metrics,
// bdcoord the coordinator-shared store's.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Hits: reg.Counter("bd_cellcache_hits_total",
			"Cell-cache lookups served from the store (one per workload×node column)."),
		Misses: reg.Counter("bd_cellcache_misses_total",
			"Cell-cache lookups that found no usable entry."),
		Stores: reg.Counter("bd_cellcache_stores_total",
			"Columns written to the cell cache."),
		Corrupt: reg.Counter("bd_cellcache_corrupt_total",
			"Cell-cache entries deleted because they failed to parse or had the wrong shape."),
		Evicted: reg.Counter("bd_cellcache_evicted_total",
			"Cell-cache entries removed by the max-entries or max-age eviction sweep."),
		Requests: reg.CounterVec("bd_cellcache_requests_total",
			"Cell-cache lookups by workload and result (hit, miss); cardinality bounded by the resolved workload registry.",
			"workload", "result"),
		reg: reg,
	}
}

// Store is an on-disk content-addressed store. All methods are safe for
// concurrent use; reads and writes go straight to the filesystem (the
// grid hot path holds no store-wide lock), only the eviction sweep
// serializes.
type Store struct {
	dir    string
	max    int
	maxAge time.Duration // 0 = no age bound
	mx     *Metrics

	mu     sync.Mutex // guards sinceSweep and the sweep itself
	sinceS int
}

// Open creates (if needed) and opens a store rooted at dir, bounded to
// maxEntries files (<=0 uses DefaultMaxEntries). maxAge > 0 adds an age
// bound: entries whose file mtime is older are garbage-collected by the
// same sweep that enforces the entry count. Open sweeps once itself, so a
// restart reclaims a store past either bound without waiting for writes.
// mx may be nil, in which case counters land on a private registry
// nothing renders; when it carries a live registry, Open also registers
// the bd_cellcache_entries / bd_cellcache_disk_bytes gauge-funcs over
// this store.
func Open(dir string, maxEntries int, maxAge time.Duration, mx *Metrics) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cellcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: creating store dir: %w", err)
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxAge < 0 {
		maxAge = 0
	}
	if mx == nil {
		mx = NewMetrics(obs.NewRegistry())
	}
	s := &Store{dir: dir, max: maxEntries, maxAge: maxAge, mx: mx}
	if mx.reg != nil {
		mx.reg.GaugeFunc("bd_cellcache_entries",
			"Cell-cache entries currently on disk (render-time directory listing).",
			func() float64 { return float64(s.Len()) })
		mx.reg.GaugeFunc("bd_cellcache_disk_bytes",
			"Bytes the cell cache currently occupies on disk.",
			func() float64 { return float64(s.DiskBytes()) })
	}
	s.sweep()
	return s, nil
}

// ValidKey reports whether key has the exact shape of a store key: 32 or
// 64 lowercase hex digits — a job ID (the truncated spec SHA-256) or a
// cell key (the full SHA-256 of the canonical cell-key spec). Keys become
// file names and may arrive from URL paths, so anything else — in
// particular separators or dot segments smuggled in via percent-encoding
// — must never reach the filesystem.
func ValidKey(key string) bool {
	if len(key) != 32 && len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get returns the bytes stored under key, or ok=false on a miss. valid
// vets the bytes before they are served: an entry it rejects — torn by a
// pre-fsync crash, rotted, or tampered with — is deleted, counted as
// corrupt and reported as a miss, so it costs a recompute instead of
// serving a confidently-hashed wrong answer.
func (s *Store) Get(key string, valid func([]byte) bool) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	if !valid(data) {
		os.Remove(s.path(key))
		s.mx.Corrupt.Inc()
		return nil, false
	}
	return data, true
}

// Has reports whether an entry for key is on disk, without reading or
// validating it.
func (s *Store) Has(key string) bool {
	if !ValidKey(key) {
		return false
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Put stores data under key. The write is atomic and fsynced (fsio), so
// no torn entry can ever be read back, and its error is returned: a
// caller that must not advertise an entry whose bytes are not on disk —
// the result tier — has to know.
func (s *Store) Put(key string, data []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("cellcache: invalid key %q", key)
	}
	if err := fsio.WriteFileSync(s.path(key), data, 0o644); err != nil {
		return err
	}
	s.mx.Stores.Inc()
	s.maybeSweep()
	return nil
}

// Delete removes key's entry, if any. It reports whether an entry was
// removed.
func (s *Store) Delete(key string) bool {
	return ValidKey(key) && os.Remove(s.path(key)) == nil
}

// Keys lists the keys of the store's current entries, in no particular
// order (a directory listing — for boot-time scans, not hot paths).
func (s *Store) Keys() []string {
	var keys []string
	for _, f := range s.files() {
		if f.entry {
			keys = append(keys, strings.TrimSuffix(f.name, ".json"))
		}
	}
	return keys
}

// workloadLabel bounds the attribution label: lookups that arrive
// without a workload name (none should) collapse into one series.
func workloadLabel(workload string) string {
	if workload == "" {
		return "unknown"
	}
	return workload
}

// GetCell returns the cached per-run metric vectors for one column, or
// ok=false on a miss. The entry is validated — JSON parse plus the exact
// runs×metrics shape — *before* it is served, so a truncated or
// wrong-shape file is deleted and counted by Get. workload is
// attribution only (per-workload hit/miss counters); it never affects
// what is served.
func (s *Store) GetCell(workload, key string, runs, metrics int) ([][]float64, bool) {
	var vecs [][]float64
	_, ok := s.Get(key, func(data []byte) bool {
		return json.Unmarshal(data, &vecs) == nil && shaped(vecs, runs, metrics)
	})
	result := "hit"
	if ok {
		s.mx.Hits.Inc()
	} else {
		vecs, result = nil, "miss"
		s.mx.Misses.Inc()
	}
	s.mx.Requests.With(workloadLabel(workload), result).Inc()
	return vecs, ok
}

// shaped reports whether vecs is exactly runs vectors of metrics values.
func shaped(vecs [][]float64, runs, metrics int) bool {
	if len(vecs) != runs {
		return false
	}
	for _, v := range vecs {
		if len(v) != metrics {
			return false
		}
	}
	return true
}

// PutCell stores one column's per-run metric vectors. Failures are
// deliberately swallowed: the cell cache is an accelerator, and a column
// that fails to persist only costs a future recompute. workload is
// attribution only.
func (s *Store) PutCell(workload, key string, vecs [][]float64) {
	if len(vecs) == 0 {
		return
	}
	if data, err := json.Marshal(vecs); err == nil {
		s.Put(key, data)
	}
}

// maybeSweep enforces the max-entries (and max-age) bound every
// sweepEvery stores.
func (s *Store) maybeSweep() {
	s.mu.Lock()
	s.sinceS++
	if s.sinceS < sweepEvery {
		s.mu.Unlock()
		return
	}
	s.sinceS = 0
	s.mu.Unlock()
	s.sweep()
}

// file is one of the store's own files in a directory listing.
type file struct {
	name      string
	mod, size int64
	entry     bool // a <key>.json entry, not a write's leftover temp file
}

// files lists the store's own files: <key>.json entries and the
// <key>.json.tmp* files an interrupted fsio write leaves behind. Anything
// else sharing the directory — an operator's notes, an old file — is never
// counted, sized or deleted.
func (s *Store) files() []file {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	out := make([]file, 0, len(ents))
	for _, e := range ents {
		key, rest, ok := strings.Cut(e.Name(), ".json")
		if !ok || !ValidKey(key) || (rest != "" && !strings.HasPrefix(rest, ".tmp")) || !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, file{e.Name(), info.ModTime().UnixNano(), info.Size(), rest == ""})
	}
	return out
}

// sweep deletes the oldest (by mtime) files beyond capacity, plus any
// file older than the age bound. Get does not bump mtime, so this is
// write-recency eviction: the working set of the most recent campaigns
// stays resident, which is exactly the overlap the store is for.
func (s *Store) sweep() {
	if s.max == Unbounded && s.maxAge == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	files := s.files()
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	var cutoff int64
	if s.maxAge > 0 {
		cutoff = time.Now().Add(-s.maxAge).UnixNano()
	}
	for i, f := range files {
		overCap := i < len(files)-s.max
		expired := cutoff != 0 && f.mod < cutoff
		if !overCap && !expired {
			break // sorted by mtime: nothing later can be expired either
		}
		if os.Remove(filepath.Join(s.dir, f.name)) == nil {
			s.mx.Evicted.Inc()
		}
	}
}

// Len counts the store's current entries (a directory listing — for
// tests and render-time gauges, not hot paths).
func (s *Store) Len() int {
	n := 0
	for _, f := range s.files() {
		if f.entry {
			n++
		}
	}
	return n
}

// DiskBytes sums the on-disk size of the store's own files (render-time
// only).
func (s *Store) DiskBytes() int64 {
	var total int64
	for _, f := range s.files() {
		total += f.size
	}
	return total
}

// WorkloadStats is one row of the per-workload attribution table.
type WorkloadStats struct {
	Workload string  `json:"workload"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// Stats is the store's point-in-time JSON snapshot: capacity and usage,
// the global counters, and the per-workload hit/miss table (sorted by
// workload name). Served inside /v1/status.
type Stats struct {
	Entries       int             `json:"entries"`
	DiskBytes     int64           `json:"disk_bytes"`
	MaxEntries    int             `json:"max_entries"`
	MaxAgeSeconds float64         `json:"max_age_seconds,omitempty"`
	Hits          uint64          `json:"hits"`
	Misses        uint64          `json:"misses"`
	Stores        uint64          `json:"stores"`
	Corrupt       uint64          `json:"corrupt"`
	Evicted       uint64          `json:"evicted"`
	HitRatio      float64         `json:"hit_ratio"`
	ByWorkload    []WorkloadStats `json:"by_workload,omitempty"`
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	st := Stats{
		Entries:       s.Len(),
		DiskBytes:     s.DiskBytes(),
		MaxEntries:    s.max,
		MaxAgeSeconds: s.maxAge.Seconds(),
		Hits:          s.mx.Hits.Value(),
		Misses:        s.mx.Misses.Value(),
		Stores:        s.mx.Stores.Value(),
		Corrupt:       s.mx.Corrupt.Value(),
		Evicted:       s.mx.Evicted.Value(),
	}
	st.HitRatio = ratio(st.Hits, st.Misses)
	byName := map[string]*WorkloadStats{}
	s.mx.Requests.Each(func(labels []string, value uint64) {
		if len(labels) != 2 {
			return
		}
		w := byName[labels[0]]
		if w == nil {
			w = &WorkloadStats{Workload: labels[0]}
			byName[w.Workload] = w
		}
		switch labels[1] {
		case "hit":
			w.Hits += value
		case "miss":
			w.Misses += value
		}
	})
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := byName[n]
		w.HitRatio = ratio(w.Hits, w.Misses)
		st.ByWorkload = append(st.ByWorkload, *w)
	}
	return st
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
