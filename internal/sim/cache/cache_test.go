package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func small() *Cache {
	// 4 sets × 2 ways × 64B lines = 512B.
	return New(Config{Name: "t", SizeB: 512, Ways: 2, LineB: 64})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero", SizeB: 0, Ways: 1, LineB: 64},
		{Name: "notmult", SizeB: 100, Ways: 1, LineB: 64},
		{Name: "ways", SizeB: 512, Ways: 3, LineB: 64},
		// Evenly divisible, but a 48-byte line has no address boundary.
		{Name: "line48", SizeB: 48 * 8 * 64, Ways: 8, LineB: 48},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v unexpectedly valid", c)
		}
	}
	good := []Config{
		{Name: "ok", SizeB: 32 * 1024, Ways: 8, LineB: 64},
		{Name: "modulo48", SizeB: 12 * 48 * 64, Ways: 48, LineB: 64},
		{Name: "byte", SizeB: 4, Ways: 4, LineB: 1},
		{Name: "half-word", SizeB: 6, Ways: 3, LineB: 2},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v invalid: %v", c, err)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{Name: "bad", SizeB: 100, Ways: 3, LineB: 7})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, Exclusive)
	if !c.Access(0x1000, false) {
		t.Fatal("access after fill missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", s)
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := small()
	c.Access(0x1000, false)
	c.Fill(0x1000, Exclusive)
	if !c.Access(0x103F, false) {
		t.Error("access within same 64B line missed")
	}
	if c.Access(0x1040, false) {
		t.Error("access to next line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets, 2 ways
	// Three addresses mapping to set 0: block addresses 0, 4, 8 (stride = sets*lineB).
	a, b, d := uint64(0), uint64(4*64), uint64(8*64)
	c.Access(a, false)
	c.Fill(a, Exclusive)
	c.Access(b, false)
	c.Fill(b, Exclusive)
	// Touch a to make b the LRU.
	c.Access(a, false)
	ev := c.Fill(d, Exclusive)
	if !ev.Valid || ev.Addr != b {
		t.Errorf("evicted %+v, want addr %#x", ev, b)
	}
	if c.Lookup(a) == Invalid {
		t.Error("recently used line evicted")
	}
	if c.Lookup(b) != Invalid {
		t.Error("LRU line still present")
	}
}

func TestWriteUpgradesToModified(t *testing.T) {
	c := small()
	c.Access(0x2000, false)
	c.Fill(0x2000, Exclusive)
	c.Access(0x2000, true)
	if st := c.Lookup(0x2000); st != Modified {
		t.Errorf("state after write = %v, want M", st)
	}
}

func TestDirtyWritebackCounted(t *testing.T) {
	c := small()
	addrs := []uint64{0, 4 * 64, 8 * 64} // all set 0
	c.Fill(addrs[0], Modified)
	c.Fill(addrs[1], Exclusive)
	ev := c.Fill(addrs[2], Exclusive) // evicts addrs[0] (LRU, dirty)
	if !ev.Valid || ev.State != Modified {
		t.Fatalf("evicted = %+v, want modified line", ev)
	}
	if c.Stats().DirtyWritebacks != 1 {
		t.Errorf("DirtyWritebacks = %d, want 1", c.Stats().DirtyWritebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0x3000, Shared)
	if st := c.Invalidate(0x3000); st != Shared {
		t.Errorf("Invalidate returned %v, want S", st)
	}
	if c.Lookup(0x3000) != Invalid {
		t.Error("line present after invalidate")
	}
	if st := c.Invalidate(0x3000); st != Invalid {
		t.Errorf("second Invalidate returned %v, want I", st)
	}
	if c.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", c.Stats().Invalidations)
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	c.Fill(0x4000, Modified)
	if st := c.Downgrade(0x4000); st != Modified {
		t.Errorf("Downgrade returned prior %v, want M", st)
	}
	if st := c.Lookup(0x4000); st != Shared {
		t.Errorf("state after downgrade = %v, want S", st)
	}
	if st := c.Downgrade(0x9999000); st != Invalid {
		t.Errorf("Downgrade of absent line = %v, want I", st)
	}
}

func TestLookupDoesNotPerturb(t *testing.T) {
	c := small()
	a, b, d := uint64(0), uint64(4*64), uint64(8*64)
	c.Fill(a, Exclusive)
	c.Fill(b, Exclusive)
	// Lookup of a must NOT refresh it; a stays LRU and is evicted.
	c.Lookup(a)
	ev := c.Fill(d, Exclusive)
	if !ev.Valid || ev.Addr != a {
		t.Errorf("evicted %+v, want addr %#x (Lookup must not touch LRU)", ev, a)
	}
	s := c.Stats()
	if s.Hits != 0 && s.Misses != 0 {
		t.Error("Lookup perturbed hit/miss counters")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

// Property: working sets that fit in the cache never miss after warmup.
func TestQuickNoCapacityMissWhenFits(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(Config{Name: "q", SizeB: 4096, Ways: 4, LineB: 64})
		// 64 lines capacity; use 32 distinct lines.
		lines := make([]uint64, 32)
		for i := range lines {
			lines[i] = uint64(i) * 64
		}
		// Warm up.
		for _, a := range lines {
			if !c.Access(a, false) {
				c.Fill(a, Exclusive)
			}
		}
		// Random accesses must all hit.
		for i := 0; i < 500; i++ {
			a := lines[r.Intn(len(lines))]
			if !c.Access(a, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses equals accesses.
func TestQuickCounterConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := small()
		const n = 300
		for i := 0; i < n; i++ {
			a := uint64(r.Intn(64)) * 64
			if !c.Access(a, r.Bool(0.3)) {
				c.Fill(a, Exclusive)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and never holds two copies of the same line.
func TestQuickOccupancyInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(Config{Name: "q", SizeB: 1024, Ways: 2, LineB: 64})
		present := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			a := uint64(r.Intn(128)) * 64
			if !c.Access(a, false) {
				ev := c.Fill(a, Exclusive)
				if ev.Valid {
					if !present[ev.Addr] {
						return false // evicted something we never inserted
					}
					delete(present, ev.Addr)
				}
				if present[a] {
					return false // duplicate fill without eviction
				}
				present[a] = true
			} else if !present[a] {
				return false // hit on a line we don't believe present
			}
		}
		return len(present) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
