package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/cellcache"
	"repro/internal/obs"
)

// CacheTierStatus is a point-in-time snapshot of result-cache
// effectiveness — GET /v1/cache/stats and /v1/status's result_cache.
type CacheTierStatus struct {
	Entries       int     `json:"entries"`        // in-memory LRU entries
	MaxEntries    int     `json:"max_entries"`    // LRU capacity
	Hits          uint64  `json:"hits"`           // Get calls that found a result
	Misses        uint64  `json:"misses"`         // Get calls that found nothing
	MemoryHits    uint64  `json:"memory_hits"`    // hits served by the LRU tier
	DiskHits      uint64  `json:"disk_hits"`      // hits promoted from the disk tier
	Stores        uint64  `json:"stores"`         // results written
	Evictions     uint64  `json:"evictions"`      // LRU entries displaced (disk copies stay until swept)
	Corrupt       uint64  `json:"corrupt"`        // disk entries deleted as unparseable
	DiskEvictions uint64  `json:"disk_evictions"` // disk entries swept past the store's bound
	HitRatio      float64 `json:"hit_ratio"`      // (memory+disk hits) / lookups
}

// cacheEntry is one cached result: the canonical JSON bytes plus their
// SHA-256, which doubles as the integrity/identity hash clients compare.
type cacheEntry struct {
	id   string
	data []byte
	hash string
}

// resultCache is the content-addressed result store: an in-memory LRU
// tier over an optional disk tier, a cellcache.Store keyed by job ID.
// Disk entries survive restarts and LRU eviction; the store bounds them
// by write recency. Counters live in cacheMetrics — obs counter storage
// — so the JSON stats endpoint and /metrics read the same atomics.
type resultCache struct {
	mu   sync.Mutex
	max  int
	disk *cellcache.Store // nil = memory-only
	ll   *list.List       // front = most recently used
	byID map[string]*list.Element
	mx   *cacheMetrics
}

// newResultCache builds the result tier. dataDir, when set, roots its
// disk half at <dataDir>/results: a store bounded to
// cellcache.DefaultMaxEntries results, with no age bound.
func newResultCache(maxEntries int, dataDir string, mx *cacheMetrics) (*resultCache, error) {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if mx == nil {
		mx = newCacheMetrics(obs.NewRegistry())
	}
	c := &resultCache{
		max:  maxEntries,
		ll:   list.New(),
		byID: make(map[string]*list.Element),
		mx:   mx,
	}
	if dataDir != "" {
		// Only the store's sweep counter is rendered (bd_cache_*).
		smx := cellcache.NewMetrics(obs.NewRegistry())
		smx.Evicted = mx.diskEvictions
		disk, err := cellcache.Open(filepath.Join(dataDir, "results"), cellcache.DefaultMaxEntries, 0, smx)
		if err != nil {
			return nil, fmt.Errorf("service: opening result store: %w", err)
		}
		c.disk = disk
	}
	return c, nil
}

func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validID reports whether id has the exact shape of a job ID (32 lowercase
// hex digits, the truncated spec SHA-256). IDs arrive from URL paths, so
// anything else is refused before any tier is consulted.
func validID(id string) bool {
	return len(id) == 32 && cellcache.ValidKey(id)
}

// Get returns the cached result bytes and their hash for a job ID,
// consulting the LRU tier first and falling back to disk (promoting the
// entry back into the LRU on a disk hit).
//
// The disk read happens outside c.mu — one slow disk op must not
// serialize every concurrent cache probe — with a re-check on reacquire:
// an entry a concurrent Put or promotion landed meanwhile wins (same
// content either way; results are content-addressed by the job ID).
// Disk bytes are validated as JSON *before* promotion: a result is
// canonical JSON by construction, so a truncated or corrupted file is
// deleted by the store and counted here instead of promoted, and the
// miss re-executes the job.
func (c *resultCache) Get(id string) (data []byte, hash string, ok bool) {
	if !validID(id) {
		return nil, "", false
	}
	c.mx.requests.Inc()
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.mx.memHits.Inc()
		return ent.data, ent.hash, true
	}
	c.mu.Unlock()

	if c.disk != nil {
		data, ok = c.disk.Get(id, func(b []byte) bool {
			if json.Valid(b) {
				return true
			}
			c.mx.corrupt.Inc()
			return false
		})
	}
	if !ok {
		c.mx.misses.Inc()
		return nil, "", false
	}
	hash = hashBytes(data)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		// A concurrent probe or Put populated the LRU while we read disk:
		// keep its entry, serve our (identical) bytes.
		c.ll.MoveToFront(el)
	} else {
		c.insert(&cacheEntry{id: id, data: data, hash: hash})
	}
	c.mx.diskHits.Inc()
	return data, hash, true
}

// Has reports whether a tier holds id's result: the LRU, then the disk
// store. It counts no request and leaves the LRU order alone.
func (c *resultCache) Has(id string) bool {
	c.mu.Lock()
	_, ok := c.byID[id]
	c.mu.Unlock()
	return ok || (c.disk != nil && c.disk.Has(id))
}

// Put stores a result under its job ID (write-through to the disk store
// when one is configured) and returns the result hash. The disk write
// happens first, outside c.mu, and is fsynced before its rename: a
// "done" job record must never outlive its result bytes across a
// power loss. If the write fails, no tier holds the entry, so a failed
// job can never be replayed as a cached success.
func (c *resultCache) Put(id string, data []byte) (string, error) {
	if !validID(id) {
		return "", fmt.Errorf("service: invalid result cache ID %q", id)
	}
	hash := hashBytes(data)
	if c.disk != nil {
		if err := c.disk.Put(id, data); err != nil {
			return hash, fmt.Errorf("service: writing result: %w", err)
		}
	}
	if cap(data) > len(data) {
		// An encoder's buffer keeps up to half its length spare: cache an
		// exact-size copy so no entry holds dead capacity.
		data = append(make([]byte, 0, len(data)), data...)
	}
	c.mx.stores.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		c.ll.MoveToFront(el)
		el.Value = &cacheEntry{id: id, data: data, hash: hash}
	} else {
		c.insert(&cacheEntry{id: id, data: data, hash: hash})
	}
	return hash, nil
}

// insert adds a fresh entry at the LRU front, evicting the tail beyond
// capacity. Callers hold c.mu.
func (c *resultCache) insert(ent *cacheEntry) {
	c.byID[ent.id] = c.ll.PushFront(ent)
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byID, tail.Value.(*cacheEntry).id)
		c.mx.evictions.Inc()
	}
}

// Entries returns the current LRU entry count (render-time gauge).
func (c *resultCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the tier's status — the one value both GET
// /v1/cache/stats and /v1/status's result_cache serve — read from the
// same obs storage /metrics renders.
func (c *resultCache) Stats() CacheTierStatus {
	mem, disk := c.mx.memHits.Value(), c.mx.diskHits.Value()
	st := CacheTierStatus{
		Entries:       c.Entries(),
		MaxEntries:    c.max,
		Hits:          mem + disk,
		Misses:        c.mx.misses.Value(),
		MemoryHits:    mem,
		DiskHits:      disk,
		Stores:        c.mx.stores.Value(),
		Evictions:     c.mx.evictions.Value(),
		Corrupt:       c.mx.corrupt.Value(),
		DiskEvictions: c.mx.diskEvictions.Value(),
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRatio = float64(st.Hits) / float64(lookups)
	}
	return st
}
