package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim/cache"
)

// TestQuickL3Inclusion verifies the inclusive-hierarchy invariant after
// arbitrary multicore runs: every block present in a core's private L2
// must also be present in its socket's L3, each L3 slot's holder mask must
// be exactly the set of the socket's cores whose L2 holds the slot's
// block, and slots without a valid line must carry no holder bits. The
// machine is checked fresh and again after a Reset and a second run.
func TestQuickL3Inclusion(t *testing.T) {
	cfg := Westmere()
	cfg.Sockets = 2
	cfg.CoresPerSocket = 2
	cfg.L1I.SizeB = 1 << 10
	cfg.L1D.SizeB = 1 << 10
	cfg.L2.SizeB = 2 << 10
	cfg.L3.SizeB = 8 << 10 // tiny L3 to force back-invalidations

	run := func(m *Machine, r *rng.RNG) bool {
		sources := make([]Source, 4)
		for c := 0; c < 4; c++ {
			ins := make([]Instr, 600)
			for i := range ins {
				k := KindLoad
				if r.Bool(0.3) {
					k = KindStore
				}
				ins[i] = Instr{
					PC:   uint64(r.Intn(512)) * 4,
					Kind: k,
					// Narrow address range so cores contend and L3 sets
					// overflow.
					Addr: uint64(r.Intn(1<<15)) &^ 7,
					Uops: 1,
				}
			}
			sources[c] = &SliceSource{Instrs: ins}
		}
		_, err := m.Run(sources, 600, 2)
		return err == nil
	}

	// consistent checks inclusion and the directory over the address
	// range the runs use, which holds every block they touch.
	consistent := func(m *Machine) bool {
		for _, s := range m.sockets {
			resident := make([]bool, len(s.dir))
			for blk := uint64(0); blk < 1<<15; blk += 64 {
				slot := s.l3.Slot(blk)
				var holders uint16
				for _, c := range m.cores {
					st := c.l2.Lookup(blk)
					if st != cache.Invalid && c.sock == s.id {
						holders |= 1 << uint(c.id)
					}
					// L1D inclusion within the private hierarchy.
					if c.l1d.Lookup(blk) != cache.Invalid && st == cache.Invalid {
						t.Logf("block %#x in core %d L1D but not L2", blk, c.id)
						return false
					}
				}
				if slot < 0 {
					if holders != 0 {
						t.Logf("block %#x held by cores %#b but not in socket %d L3", blk, holders, s.id)
						return false
					}
					continue
				}
				resident[slot] = true
				if s.dir[slot] != holders {
					t.Logf("socket %d slot %d (block %#x): directory %#b, L2 holders %#b", s.id, slot, blk, s.dir[slot], holders)
					return false
				}
			}
			for slot, mask := range s.dir {
				if !resident[slot] && mask != 0 {
					t.Logf("socket %d slot %d holds no line but has holder bits %#b", s.id, slot, mask)
					return false
				}
			}
		}
		return true
	}

	f := func(seed uint64) bool {
		m, err := New(cfg)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		if !run(m, r) || !consistent(m) {
			return false
		}
		m.Reset()
		return run(m, r) && consistent(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestQuickSingleWriterInvariant: a block in Modified state in one core's
// L2 must not be valid in any other core's private cache.
func TestQuickSingleWriterInvariant(t *testing.T) {
	cfg := Westmere()
	cfg.Sockets = 2
	cfg.CoresPerSocket = 2
	cfg.L2.SizeB = 4 << 10
	cfg.L3.SizeB = 32 << 10

	f := func(seed uint64) bool {
		m, err := New(cfg)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		sources := make([]Source, 4)
		for c := 0; c < 4; c++ {
			ins := make([]Instr, 400)
			for i := range ins {
				k := KindLoad
				if r.Bool(0.5) {
					k = KindStore
				}
				// Small shared range: heavy contention.
				ins[i] = Instr{PC: uint64(r.Intn(64)) * 4, Kind: k, Addr: uint64(r.Intn(1<<12)) &^ 7, Uops: 1}
			}
			sources[c] = &SliceSource{Instrs: ins}
		}
		if _, err := m.Run(sources, 400, 1); err != nil {
			return false
		}
		for blk := uint64(0); blk < 1<<12; blk += 64 {
			writer := -1
			for _, c := range m.cores {
				if c.l2.Lookup(blk) == cache.Modified {
					if writer >= 0 {
						t.Logf("block %#x modified in cores %d and %d", blk, writer, c.id)
						return false
					}
					writer = c.id
				}
			}
			if writer < 0 {
				continue
			}
			for _, c := range m.cores {
				if c.id == writer {
					continue
				}
				if c.l2.Lookup(blk) != cache.Invalid || c.l1d.Lookup(blk) != cache.Invalid {
					t.Logf("block %#x modified in core %d but valid in core %d", blk, writer, c.id)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
