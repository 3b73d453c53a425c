package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// referenceCache is the original struct-of-lines cache: each way is a
// {tag, state, LRU stamp} record and every probe walks all of a set's
// ways. It is the differential oracle for the packed Cache
// (TestQuickCacheMatchesReference, FuzzCacheVsReference), in the tradition
// of the clustering and snapshot reference paths.

// referenceLine is one cache line's tag state.
type referenceLine struct {
	Tag   uint64
	State State
	lru   uint64 // larger = more recently used
}

// referenceCache is a single set-associative cache level.
type referenceCache struct {
	cfg      Config
	sets     [][]referenceLine
	nsets    uint64
	setMask  uint64 // nsets-1 when nsets is a power of two, else 0
	lineBits uint
	clock    uint64
	stats    Stats
}

// newReference builds a reference cache from cfg. It panics on invalid
// geometry.
func newReference(cfg Config) *referenceCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeB / cfg.LineB
	nsets := lines / cfg.Ways
	sets := make([][]referenceLine, nsets)
	backing := make([]referenceLine, lines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	lb := uint(0)
	for 1<<lb < cfg.LineB {
		lb++
	}
	c := &referenceCache{
		cfg:      cfg,
		sets:     sets,
		nsets:    uint64(nsets),
		lineBits: lb,
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = uint64(nsets - 1)
	}
	return c
}

// Reset clears every line, rewinds the LRU clock and zeroes the counters.
func (c *referenceCache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = referenceLine{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
}

// Stats returns a copy of the counters.
func (c *referenceCache) Stats() Stats { return c.stats }

// slot returns the flat index (set × ways + way) of addr's valid line,
// or -1.
func (c *referenceCache) slot(addr uint64) int {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			return int(set)*c.cfg.Ways + i
		}
	}
	return -1
}

func (c *referenceCache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.lineBits
	// Modulo set indexing: the paper's 12 MB L3 has 12288 sets, which is
	// not a power of two. The full block address is kept as the tag,
	// which is simple and unambiguous. Power-of-two set counts (every L1
	// and L2) take the mask fast path — index is on the hot path of each
	// simulated memory access.
	if c.setMask != 0 {
		return blk & c.setMask, blk
	}
	return blk % c.nsets, blk
}

// Lookup probes for addr without modifying replacement state or counters.
// It returns the line's state (Invalid if absent).
func (c *referenceCache) Lookup(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			return l.State
		}
	}
	return Invalid
}

// Access performs a demand access for addr. If the line is present it is
// promoted to MRU and (for writes) upgraded to Modified; hit=true is
// returned. Otherwise hit=false and the caller is responsible for filling
// via Fill after consulting the next level.
func (c *referenceCache) Access(addr uint64, write bool) (hit bool) {
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			l.lru = c.clock
			if write {
				l.State = Modified
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill installs addr with the given state, evicting the LRU line if the
// set is full. The evicted line (if any) is returned so the caller can
// propagate write-backs and maintain inclusion.
func (c *referenceCache) Fill(addr uint64, st State) Evicted {
	set, tag := c.index(addr)
	c.clock++
	// Prefer an invalid way.
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State == Invalid {
			victim = i
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = i
		}
	}
	l := &c.sets[set][victim]
	var ev Evicted
	if l.State != Invalid {
		ev = Evicted{Addr: l.Tag << c.lineBits, State: l.State, Valid: true}
		c.stats.Evictions++
		if l.State == Modified {
			c.stats.DirtyWritebacks++
		}
	}
	l.Tag = tag
	l.State = st
	l.lru = c.clock
	return ev
}

// Invalidate removes addr if present, returning its prior state. Used by
// snoops (RFO from another core) and inclusion enforcement.
func (c *referenceCache) Invalidate(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			st := l.State
			l.State = Invalid
			c.stats.Invalidations++
			return st
		}
	}
	return Invalid
}

// Downgrade moves addr to Shared if present in E or M state (snoop read
// hit), returning the prior state.
func (c *referenceCache) Downgrade(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			st := l.State
			if st == Exclusive || st == Modified {
				l.State = Shared
			}
			return st
		}
	}
	return Invalid
}

// MarkDirty sets addr's line to Modified if present (write-back received
// from an inner level under inclusion), returning whether it was present.
func (c *referenceCache) MarkDirty(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.State != Invalid && l.Tag == tag {
			l.State = Modified
			return true
		}
	}
	return false
}

// differentialGeometries covers power-of-two and modulo set counts, 1 to
// 48 ways, and 1-, 2- and 64-byte lines, including the geometries whose
// tags overflow the line word (line size × sets < 4).
var differentialGeometries = []Config{
	{Name: "pow2", SizeB: 512, Ways: 2, LineB: 64},
	{Name: "direct", SizeB: 256, Ways: 1, LineB: 64},
	{Name: "l1d", SizeB: 4096, Ways: 8, LineB: 64},
	{Name: "modulo", SizeB: 3 * 5 * 64, Ways: 5, LineB: 64},
	{Name: "modulo48", SizeB: 12 * 48 * 64, Ways: 48, LineB: 64},
	{Name: "full48", SizeB: 48 * 64, Ways: 48, LineB: 64},
	{Name: "byte-modulo", SizeB: 6 * 7, Ways: 7, LineB: 1},
	{Name: "byte-one-set", SizeB: 4, Ways: 4, LineB: 1},
	{Name: "byte-three-sets", SizeB: 3 * 2, Ways: 2, LineB: 1},
	{Name: "byte-two-sets-48", SizeB: 2 * 48, Ways: 48, LineB: 1},
	{Name: "half-word-one-set", SizeB: 3 * 2, Ways: 3, LineB: 2},
}

// opBytes is the width of one encoded operation in runDifferential.
const opBytes = 3

// runDifferential decodes ops (opBytes bytes each) into cache operations,
// applies each to a packed Cache and a referenceCache of geometry cfg, and
// reports the first operation whose result, line state, eviction or
// counters differ. Addresses come from 256 tags over 4 sets with the top
// two address bits varied, so sets overflow, ways conflict, and tags that
// differ only above bit 62 must stay apart.
func runDifferential(cfg Config, ops []byte) error {
	got, want := New(cfg), newReference(cfg)
	nsets := uint64(got.Sets())
	for n := 0; n+opBytes <= len(ops); n += opBytes {
		op, tag, x := ops[n], uint64(ops[n+1]), uint64(ops[n+2])
		blk := tag*nsets + x%4
		addr := (blk<<got.lineBits | x>>2%uint64(cfg.LineB)) ^ x>>6<<62
		st := State(op / 16 % 4)
		var g, w any
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5: // demand access, filling on a miss
			write := op%2 == 1
			hg, hw := got.Access(addr, write), want.Access(addr, write)
			g, w = hg, hw
			if !hg && !hw {
				if write {
					st = Modified
				} else if st == Invalid {
					st = Exclusive
				}
				g, w = got.Fill(addr, st), want.Fill(addr, st)
			}
		case 6, 7: // fill without a probe, any state
			g, w = got.Fill(addr, st), want.Fill(addr, st)
		case 8:
			g, w = got.Lookup(addr), want.Lookup(addr)
		case 9:
			g, w = got.Invalidate(addr), want.Invalidate(addr)
		case 10:
			g, w = got.Downgrade(addr), want.Downgrade(addr)
		case 11:
			g, w = got.MarkDirty(addr), want.MarkDirty(addr)
		case 12, 13:
			g, w = got.Slot(addr), want.slot(addr)
		case 14:
			g, w = got.Access(addr, true), want.Access(addr, true)
		case 15:
			if op == 15 { // one op code in 16 of these: keep runs long
				got.Reset()
				want.Reset()
			}
		}
		if g != w {
			return fmt.Errorf("%s op %d (%d at %#x): packed %+v, reference %+v", cfg.Name, n/opBytes, op, addr, g, w)
		}
		if gs, ws := got.Lookup(addr), want.Lookup(addr); gs != ws {
			return fmt.Errorf("%s op %d (%d at %#x): state %v, reference %v", cfg.Name, n/opBytes, op, addr, gs, ws)
		}
		if got.Stats() != want.Stats() {
			return fmt.Errorf("%s op %d (%d at %#x): stats %+v, reference %+v", cfg.Name, n/opBytes, op, addr, got.Stats(), want.Stats())
		}
	}
	return nil
}

// TestQuickCacheMatchesReference drives the packed cache and the reference
// with the same random operation streams over every differential
// geometry.
func TestQuickCacheMatchesReference(t *testing.T) {
	for _, cfg := range differentialGeometries {
		t.Run(cfg.Name, func(t *testing.T) {
			f := func(seed uint64) bool {
				r := rng.New(seed)
				ops := make([]byte, 3000*opBytes)
				for i := range ops {
					ops[i] = byte(r.Intn(256))
				}
				if err := runDifferential(cfg, ops); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzCacheVsReference is the fuzzing form of the differential check: the
// fuzzer picks the geometry and the operation stream.
func FuzzCacheVsReference(f *testing.F) {
	for g := range differentialGeometries {
		f.Add(uint8(g), []byte{0, 1, 0, 1, 1, 0, 8, 1, 0, 9, 1, 0, 6, 2, 64, 12, 2, 64})
	}
	f.Fuzz(func(t *testing.T, geometry uint8, ops []byte) {
		cfg := differentialGeometries[int(geometry)%len(differentialGeometries)]
		if err := runDifferential(cfg, ops); err != nil {
			t.Fatal(err)
		}
	})
}
