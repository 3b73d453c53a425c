// Package cache models set-associative write-back caches with true LRU
// replacement and MESI line states, matching the Table III hierarchy of
// the paper's Xeon E5645: split 32 KB L1I/L1D, 256 KB private unified L2,
// and a 12 MB shared L3 per socket.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the MESI letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Config describes a cache's geometry.
type Config struct {
	Name  string
	SizeB int // total bytes
	Ways  int
	LineB int // line size in bytes
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.LineB&(c.LineB-1) != 0 {
		// Addresses map to lines by their low bits: a line that is not a
		// power of two bytes has no such boundary.
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineB)
	}
	lines := c.SizeB / c.LineB
	if lines*c.LineB != c.SizeB {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.SizeB, c.LineB)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	return nil
}

// Stats aggregates a cache's access counters.
type Stats struct {
	Hits, Misses    uint64
	Evictions       uint64
	DirtyWritebacks uint64
	Invalidations   uint64
}

// Cache is a single set-associative cache level in a packed layout. Each
// line is one word holding its tag and MESI state, and its LRU stamp sits
// in a parallel array that only hits and fills touch. Each set keeps an
// occupancy record, so a probe reads only the ways that may be valid and
// Reset clears only the records.
type Cache struct {
	cfg    Config
	ways   int
	words  []uint64    // per line: tag<<stateBits | state
	stamps []uint64    // per line: LRU stamp, larger = more recently used
	occ    []occupancy // per set
	// hi holds the tag bits the word has no room for. Only geometries
	// with fewer than four bytes per way (line size × sets < 4) have
	// such bits, so it is nil everywhere else.
	hi []uint8

	nsets    uint64
	setShift uint // log2(nsets) when nsets is a power of two
	modulo   bool // nsets is not a power of two
	lineBits uint
	clock    uint64
	stats    Stats
}

// occupancy is a set's fill record. A fill takes the first invalid way,
// so ways fill in order: the ways at or past filled have not been filled
// since Reset and are invalid. holes counts the invalid ways below filled
// (invalidated, or filled Invalid), so a fill into a set without holes
// scans for none.
type occupancy struct {
	filled, holes uint32
}

// The low stateBits of a line word hold its State; the rest hold the tag,
// which is the block number divided by the set count.
const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// New builds a cache from cfg. It panics on invalid geometry, since
// configurations are compile-time constants in this repository.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeB / cfg.LineB
	nsets := lines / cfg.Ways
	c := &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		words:    make([]uint64, lines),
		stamps:   make([]uint64, lines),
		occ:      make([]occupancy, nsets),
		nsets:    uint64(nsets),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineB))),
	}
	if nsets&(nsets-1) == 0 {
		c.setShift = uint(bits.TrailingZeros(uint(nsets)))
	} else {
		c.modulo = true
	}
	if cfg.LineB*nsets < 1<<stateBits {
		c.hi = make([]uint8, lines)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset returns the cache to its post-New state: all lines invalid, the
// LRU clock rewound and the counters zeroed. A reset cache behaves
// identically to a freshly constructed one, which lets simulation workers
// reuse a cache across runs instead of reallocating it. Only the
// occupancy records are cleared: line words past a fill mark are never
// read.
func (c *Cache) Reset() {
	clear(c.occ)
	c.clock = 0
	c.stats = Stats{}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return int(c.nsets) }

// index splits addr into its set, the tag shifted into line-word
// position, and the tag bits above the word (nonzero only for hi caches).
// Power-of-two set counts (every L1 and L2) take the mask fast path;
// the paper's 12 MB L3 has 12288 sets and indexes by modulo.
func (c *Cache) index(addr uint64) (set int, key uint64, hi uint8) {
	blk := addr >> c.lineBits
	var tag uint64
	if c.modulo {
		tag, set = blk/c.nsets, int(blk%c.nsets)
	} else {
		tag, set = blk>>c.setShift, int(blk&(c.nsets-1))
	}
	return set, tag << stateBits, uint8(tag >> (64 - stateBits))
}

// find returns the flat index of the valid line of set whose tag is key,
// or -1. Only the ways below the set's fill mark are read.
func (c *Cache) find(set int, key uint64, hi uint8) int {
	base := set * c.ways
	for i, w := range c.words[base : base+int(c.occ[set].filled)] {
		// w^key is the line's state exactly when the tags match, and a
		// state of 1–3 is a valid line.
		if (w^key)-1 < stateMask && (c.hi == nil || c.hi[base+i] == hi) {
			return base + i
		}
	}
	return -1
}

// Slot returns the flat index (set × ways + way) of addr's resident line,
// or -1 if addr is not resident. A line keeps its slot until it is
// evicted or invalidated, so callers can index per-line side tables by it.
func (c *Cache) Slot(addr uint64) int {
	return c.find(c.index(addr))
}

// Lookup probes for addr without modifying replacement state or counters.
// It returns the line's state (Invalid if absent).
func (c *Cache) Lookup(addr uint64) State {
	if i := c.find(c.index(addr)); i >= 0 {
		return State(c.words[i] & stateMask)
	}
	return Invalid
}

// Access performs a demand access for addr. If the line is present it is
// promoted to MRU and (for writes) upgraded to Modified; hit=true is
// returned. Otherwise hit=false and the caller is responsible for filling
// via Fill after consulting the next level.
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	c.clock++
	i := c.find(c.index(addr))
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.stamps[i] = c.clock
	if write {
		c.words[i] |= uint64(Modified)
	}
	c.stats.Hits++
	return true
}

// Evicted describes a line displaced by Fill.
type Evicted struct {
	Addr  uint64
	State State
	Valid bool
}

// Fill installs addr with the given state, evicting the LRU line if the
// set is full. The evicted line (if any) is returned so the caller can
// propagate write-backs and maintain inclusion.
func (c *Cache) Fill(addr uint64, st State) Evicted {
	set, key, hi := c.index(addr)
	c.clock++
	v, old := c.victim(set)
	var ev Evicted
	if prev := State(old & stateMask); prev != Invalid {
		ev = Evicted{Addr: c.lineAddr(set, v, old), State: prev, Valid: true}
		c.stats.Evictions++
		if prev == Modified {
			c.stats.DirtyWritebacks++
		}
	}
	c.words[v] = key | uint64(st)
	c.stamps[v] = c.clock
	if c.hi != nil {
		c.hi[v] = hi
	}
	if st == Invalid {
		c.occ[set].holes++
	}
	return ev
}

// victim picks the line a fill of set replaces and returns its flat index
// and current word: the first invalid way, else the first way with the
// smallest LRU stamp. Without holes the first invalid way is the one at
// the fill mark.
func (c *Cache) victim(set int) (int, uint64) {
	base := set * c.ways
	o := &c.occ[set]
	n := int(o.filled)
	if o.holes > 0 {
		o.holes--
		for i, w := range c.words[base : base+n] {
			if w&stateMask == uint64(Invalid) {
				return base + i, w
			}
		}
	}
	if n < c.ways {
		o.filled++
		return base + n, 0
	}
	// Find the smallest stamp without a data-dependent branch, then the
	// first way that holds it.
	stamps := c.stamps[base : base+c.ways]
	oldest := stamps[0]
	for _, s := range stamps[1:] {
		oldest = min(oldest, s)
	}
	v := 0
	for stamps[v] != oldest {
		v++
	}
	return base + v, c.words[base+v]
}

// lineAddr rebuilds the byte address of the line in slot i of set from
// its word.
func (c *Cache) lineAddr(set, i int, w uint64) uint64 {
	tag := w >> stateBits
	if c.hi != nil {
		tag |= uint64(c.hi[i]) << (64 - stateBits)
	}
	var blk uint64
	if c.modulo {
		blk = tag*c.nsets + uint64(set)
	} else {
		blk = tag<<c.setShift | uint64(set)
	}
	return blk << c.lineBits
}

// Invalidate removes addr if present, returning its prior state. Used by
// snoops (RFO from another core) and inclusion enforcement.
func (c *Cache) Invalidate(addr uint64) State {
	set, key, hi := c.index(addr)
	i := c.find(set, key, hi)
	if i < 0 {
		return Invalid
	}
	st := State(c.words[i] & stateMask)
	c.words[i] &^= stateMask
	c.occ[set].holes++
	c.stats.Invalidations++
	return st
}

// Downgrade moves addr to Shared if present in E or M state (snoop read
// hit), returning the prior state.
func (c *Cache) Downgrade(addr uint64) State {
	i := c.find(c.index(addr))
	if i < 0 {
		return Invalid
	}
	st := State(c.words[i] & stateMask)
	if st == Exclusive || st == Modified {
		c.words[i] = c.words[i]&^stateMask | uint64(Shared)
	}
	return st
}

// MarkDirty sets addr's line to Modified if present (write-back received
// from an inner level under inclusion), returning whether it was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	i := c.find(c.index(addr))
	if i < 0 {
		return false
	}
	c.words[i] |= uint64(Modified)
	return true
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineB }
