package machine

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/sim/branch"
	"repro/internal/sim/cache"
	"repro/internal/sim/event"
	"repro/internal/sim/tlb"
)

// Machine is one simulated node: sockets of cores around shared L3s,
// kept coherent with a MESI snoop protocol.
type Machine struct {
	cfg     Config
	sockets []*socket
	cores   []*core
	lineB   uint64

	// Incremental-snapshot state: snapTotal is the machine-wide total as
	// of the last Snapshot call, snapCore the per-core contribution folded
	// into it, and snapDirty each core's dirty counter at that point.
	// Cores whose counter is unchanged (idle since the previous slice, or
	// done with their stream) are skipped instead of re-summed.
	snapTotal event.Counts
	snapCore  []event.Counts
	snapDirty []uint64
}

// socket groups cores around a shared, inclusive L3. dir holds, for each
// L3 slot, the bitmask of global core IDs whose private caches hold the
// slot's block (the core-valid bits of the real L3's directory). The L3 is
// inclusive and every level shares one line size, so every privately held
// block has an L3 slot; l3Fill zeroes a slot's mask when it reuses it.
type socket struct {
	id  int
	l3  *cache.Cache
	dir []uint16
}

// core is one out-of-order core plus its private hierarchy and the
// interval-model accounting state.
type core struct {
	id   int
	sock int

	l1i, l1d, l2 *cache.Cache
	tlbs         *tlb.Hierarchy
	bp           *branch.Predictor

	ev event.Counts

	// dirty counts executed instructions; Snapshot uses it to skip cores
	// whose accounting state cannot have changed since the last snapshot.
	dirty uint64

	// Time and stall attribution, in fractional cycles.
	cycles     float64
	fetchStall float64
	ildStall   float64
	decStall   float64
	ratStall   float64
	resStall   float64

	uopsExecuted     float64
	branchesExecuted float64

	// Outstanding long-latency misses (completion times) for MLP and
	// MSHR pressure; pending holds recent long-latency fills, at most one
	// per block, for line-fill-buffer hits.
	outstanding        []float64
	pending            []pendingFill
	lastLoadCompletion float64

	mlpWeighted float64
	mlpCycles   float64
}

// pendingFill is a long-latency fill of blk that completes at cycle done.
type pendingFill struct {
	blk  uint64
	done float64
}

// New builds a node from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, lineB: uint64(cfg.L2.LineB)}
	for s := 0; s < cfg.Sockets; s++ {
		m.sockets = append(m.sockets, &socket{
			id:  s,
			l3:  cache.New(cfg.L3),
			dir: make([]uint16, cfg.L3.SizeB/cfg.L3.LineB),
		})
	}
	for c := 0; c < cfg.Cores(); c++ {
		m.cores = append(m.cores, &core{
			id:   c,
			sock: c / cfg.CoresPerSocket,
			l1i:  cache.New(cfg.L1I),
			l1d:  cache.New(cfg.L1D),
			l2:   cache.New(cfg.L2),
			tlbs: tlb.New(cfg.ITLB, cfg.DTLB, cfg.STLB, cfg.TLBWalkCycles),
			bp:   branch.New(cfg.BranchHistoryBits),
		})
	}
	m.snapCore = make([]event.Counts, len(m.cores))
	m.snapDirty = make([]uint64, len(m.cores))
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Reset returns the machine to its post-New state so one allocation can be
// reused across node simulations. A reset machine is bit-identical in
// behaviour to a freshly constructed one: caches, TLBs, branch predictors,
// directories and all accounting state are cleared.
func (m *Machine) Reset() {
	for _, s := range m.sockets {
		s.l3.Reset()
		clear(s.dir)
	}
	for _, c := range m.cores {
		c.l1i.Reset()
		c.l1d.Reset()
		c.l2.Reset()
		c.tlbs.Reset()
		c.bp.Reset()
		c.ev = event.Counts{}
		c.cycles = 0
		c.fetchStall = 0
		c.ildStall = 0
		c.decStall = 0
		c.ratStall = 0
		c.resStall = 0
		c.uopsExecuted = 0
		c.branchesExecuted = 0
		c.outstanding = c.outstanding[:0]
		c.pending = c.pending[:0]
		c.lastLoadCompletion = 0
		c.mlpWeighted = 0
		c.mlpCycles = 0
		c.dirty = 0
	}
	m.snapTotal = event.Counts{}
	for i := range m.snapCore {
		m.snapCore[i] = event.Counts{}
		m.snapDirty[i] = 0
	}
}

func (m *Machine) block(addr uint64) uint64 { return addr &^ (m.lineB - 1) }

// advance moves the core's clock by dt cycles, integrating MLP over the
// window and pruning completed misses. A caller passing a product as dt
// rounds it (float64(x*y)), so no inlined copy fuses it into the sums
// below.
func (c *core) advance(dt float64) {
	if dt <= 0 {
		return
	}
	start := c.cycles
	end := start + dt
	// Count outstanding misses alive anywhere in the window. A finer
	// integration is unnecessary at this fidelity.
	alive := 0
	kept := c.outstanding[:0]
	for _, t := range c.outstanding {
		if t > start {
			alive++
		}
		if t > end {
			kept = append(kept, t)
		}
	}
	c.outstanding = kept
	if alive > 0 {
		c.mlpWeighted += float64(float64(alive) * dt)
		c.mlpCycles += dt
	}
	c.cycles = end
}

// stall advances time by dt and attributes it to the given bucket.
func (c *core) stall(bucket *float64, dt float64) {
	*bucket += dt
	c.advance(dt)
}

// fetchSource classifies where a block was served from.
type fetchSource int

const (
	srcL2 fetchSource = iota
	srcSibling
	srcL3Unshared
	srcL3Shared
	srcRemote
	srcMemory
)

// fetchBlock resolves a block that missed the private L2: it probes the
// local L3 and snoops the sibling cores its directory names, then the
// remote socket, and finally memory; fills the line into L3/L2/L1 of the
// requester; and returns the source and latency. rfo requests invalidate
// all other copies; code requests fill the L1I instead of the L1D.
func (m *Machine) fetchBlock(c *core, blk uint64, rfo, code bool) (fetchSource, uint64) {
	own := m.sockets[c.sock]
	myBit := uint16(1) << uint(c.id)

	src := srcMemory
	latency := m.cfg.MemLatency

	// Under inclusion only a block in the L3 can have sibling holders.
	l3Hit := own.l3.Access(blk, false)
	slot := -1
	bestState := cache.Invalid
	if l3Hit {
		c.ev.Inc(event.L3Hit, 1)
		slot = own.l3.Slot(blk)
		bestState = m.bestHolder(own.dir[slot]&^myBit, blk)
	} else {
		c.ev.Inc(event.L3Miss, 1)
	}
	switch {
	case bestState == cache.Modified || bestState == cache.Exclusive:
		src, latency = srcSibling, m.cfg.SiblingLatency
	case bestState == cache.Shared:
		src, latency = srcL3Shared, m.cfg.L3Latency
	case l3Hit:
		src, latency = srcL3Unshared, m.cfg.L3Latency
	}
	if bestState != cache.Invalid {
		c.snoopHit(bestState)
		// Downgrade or invalidate the sibling copies.
		m.adjustHolders(own, slot, blk, myBit, rfo)
	}

	if src == srcMemory {
		// Local socket had nothing; try the remote socket(s).
		for _, rs := range m.sockets {
			if rs == own {
				continue
			}
			rslot := rs.l3.Slot(blk)
			if rslot < 0 {
				continue
			}
			c.snoopHit(m.bestHolder(rs.dir[rslot], blk))
			m.adjustHolders(rs, rslot, blk, 0, rfo)
			if rfo {
				rs.l3.Invalidate(blk)
			} else {
				rs.l3.Downgrade(blk)
			}
			src, latency = srcRemote, m.cfg.CrossSocketLatency
			break
		}
	}

	// An RFO must invalidate every remaining copy machine-wide, even when
	// the data was served locally: a line read earlier across sockets is
	// resident in both L3s (and possibly remote private caches).
	if rfo {
		for _, rs := range m.sockets {
			if rs == own {
				continue
			}
			rslot := rs.l3.Slot(blk)
			if rslot < 0 {
				continue
			}
			// Invalidation snoop response (unless this socket already
			// responded as the data source above).
			if src != srcRemote {
				c.snoopHit(m.bestHolder(rs.dir[rslot], blk))
			}
			m.adjustHolders(rs, rslot, blk, 0, true)
			rs.l3.Invalidate(blk)
		}
	}

	// Install into the local L3 (inclusive) if absent.
	if !l3Hit {
		slot = m.l3Fill(own, blk, rfo)
	}

	// Fill the private hierarchy.
	st := cache.Exclusive
	if rfo {
		st = cache.Modified
	} else if src == srcSibling || src == srcL3Shared || src == srcRemote {
		st = cache.Shared
	}
	m.l2Fill(c, slot, blk, st)
	if code {
		c.l1i.Fill(blk, st)
	} else {
		c.l1d.Fill(blk, st)
	}
	return src, latency
}

// bestHolder returns the strongest state in which the cores of holders
// keep blk in their L2s (Invalid if none does).
func (m *Machine) bestHolder(holders uint16, blk uint64) cache.State {
	best := cache.Invalid
	for h := holders; h != 0; h &= h - 1 {
		if st := m.cores[bits.TrailingZeros16(h)].l2.Lookup(blk); st > best {
			best = st
		}
	}
	return best
}

// snoopHit counts one snoop response by the best state the responding
// caches held: HITM, HITE, or a plain HIT for shared or L3-only copies.
func (c *core) snoopHit(best cache.State) {
	switch best {
	case cache.Modified:
		c.ev.Inc(event.SnoopHitM, 1)
	case cache.Exclusive:
		c.ev.Inc(event.SnoopHitE, 1)
	default:
		c.ev.Inc(event.SnoopHit, 1)
	}
}

// adjustHolders downgrades (read) or invalidates (RFO) every private copy
// of blk, the block in L3 slot slot of socket s, other than keepBit's,
// maintaining the directory.
func (m *Machine) adjustHolders(s *socket, slot int, blk uint64, keepBit uint16, rfo bool) {
	holders := s.dir[slot] &^ keepBit
	for h := holders; h != 0; h &= h - 1 {
		oc := m.cores[bits.TrailingZeros16(h)]
		if rfo {
			oc.l2.Invalidate(blk)
			oc.l1d.Invalidate(blk)
			oc.l1i.Invalidate(blk)
		} else {
			oc.l2.Downgrade(blk)
			oc.l1d.Downgrade(blk)
		}
	}
	if rfo {
		s.dir[slot] &^= holders
	}
}

// l3Fill installs blk in the socket's L3 and returns its slot, enforcing
// inclusion on eviction: the private copies of the victim are invalidated
// and the slot's holder mask starts empty for its new block.
func (m *Machine) l3Fill(s *socket, blk uint64, rfo bool) int {
	st := cache.Exclusive
	if rfo {
		st = cache.Modified
	}
	ev := s.l3.Fill(blk, st)
	slot := s.l3.Slot(blk)
	if ev.Valid {
		for h := s.dir[slot]; h != 0; h &= h - 1 {
			oc := m.cores[bits.TrailingZeros16(h)]
			oc.l2.Invalidate(ev.Addr)
			oc.l1d.Invalidate(ev.Addr)
			oc.l1i.Invalidate(ev.Addr)
		}
	}
	s.dir[slot] = 0
	return slot
}

// l2Fill installs blk, which sits in L3 slot slot, in the core's private
// L2, maintaining the directory and handling the victim (write-back of
// dirty data, back-invalidation of the L1s).
func (m *Machine) l2Fill(c *core, slot int, blk uint64, st cache.State) {
	ev := c.l2.Fill(blk, st)
	s := m.sockets[c.sock]
	bit := uint16(1) << uint(c.id)
	s.dir[slot] |= bit
	if !ev.Valid {
		return
	}
	s.dir[s.l3.Slot(ev.Addr)] &^= bit // inclusive: the victim is in the L3
	c.l1d.Invalidate(ev.Addr)
	c.l1i.Invalidate(ev.Addr)
	if ev.State == cache.Modified {
		c.ev.Inc(event.OffcoreWB, 1)
		s.l3.MarkDirty(ev.Addr)
	}
}

// inFlight reports whether a fill of blk is still in flight, and when it
// completes. Completed fills met on the way are dropped: the clock only
// moves forward, so they can never be in flight again, and the list
// stays about as short as the misses outstanding.
func (c *core) inFlight(blk uint64) (done float64, ok bool) {
	for i := 0; i < len(c.pending); {
		p := c.pending[i]
		if p.done <= c.cycles {
			last := len(c.pending) - 1
			c.pending[i] = c.pending[last]
			c.pending = c.pending[:last]
			continue
		}
		if p.blk == blk {
			return p.done, true
		}
		i++
	}
	return 0, false
}

// instructionFetch runs the frontend for one instruction: ITLB, L1I, and
// the memory hierarchy below on a miss. Penalties stall the frontend.
func (m *Machine) instructionFetch(c *core, in *Instr) {
	tr := c.tlbs.TranslateI(in.PC)
	if tr.WalkCycles > 0 {
		c.stall(&c.fetchStall, float64(tr.WalkCycles))
	}
	if c.l1i.Access(in.PC, false) {
		c.ev.Inc(event.L1IHit, 1)
		return
	}
	c.ev.Inc(event.L1IMiss, 1)
	blk := m.block(in.PC)
	if c.l2.Access(blk, false) {
		c.ev.Inc(event.L2Hit, 1)
		c.l1i.Fill(blk, c.l2.Lookup(blk))
		c.stall(&c.fetchStall, float64(m.cfg.L2Latency))
		return
	}
	c.ev.Inc(event.L2Miss, 1)
	c.ev.Inc(event.OffcoreCode, 1)
	_, lat := m.fetchBlock(c, blk, false, true)
	c.stall(&c.fetchStall, float64(lat))
}

// dataAccess runs a load or store through the data hierarchy and returns
// the access latency. Long-latency load misses register as outstanding
// for MLP and dependence stalls.
func (m *Machine) dataAccess(c *core, in *Instr) {
	write := in.Kind == KindStore
	tr := c.tlbs.TranslateD(in.Addr)
	if tr.WalkCycles > 0 {
		// Data page walks overlap with the backend but occupy resources;
		// charge them as resource stalls (the paper attributes DTLB walk
		// cycles to backend pressure, §V-C).
		c.stall(&c.resStall, float64(tr.WalkCycles))
	}
	blk := m.block(in.Addr)

	// A fill still in flight for this block means the access is absorbed
	// by the line fill buffer, even though the model installs lines
	// eagerly: architecturally the data has not arrived yet.
	if done, ok := c.inFlight(blk); ok {
		if !write {
			c.ev.Inc(event.LoadHitLFB, 1)
			c.lastLoadCompletion = done
		}
		return
	}

	if c.l1d.Access(in.Addr, write) {
		if write {
			switch c.l2.Lookup(blk) {
			case cache.Shared:
				// Upgrade: invalidate other copies machine-wide.
				c.ev.Inc(event.OffcoreRFO, 1)
				m.upgradeToModified(c, blk)
				c.l2.MarkDirty(blk)
			case cache.Exclusive:
				// Silent E→M upgrade; keep L2 consistent with L1.
				c.l2.MarkDirty(blk)
			}
		}
		return
	}

	var latency uint64
	if c.l2.Access(blk, write) {
		c.ev.Inc(event.L2Hit, 1)
		// A write Access has already made the L2 line Modified; other
		// copies must still be dropped.
		st := cache.Modified
		if write {
			m.upgradeToModified(c, blk)
		} else {
			st = c.l2.Lookup(blk)
			c.ev.Inc(event.LoadHitL2, 1)
		}
		c.l1d.Fill(blk, st)
		latency = m.cfg.L2Latency
	} else {
		c.ev.Inc(event.L2Miss, 1)
		if write {
			c.ev.Inc(event.OffcoreRFO, 1)
		} else {
			c.ev.Inc(event.OffcoreData, 1)
		}
		src, lat := m.fetchBlock(c, blk, write, false)
		latency = lat
		if !write {
			switch src {
			case srcSibling:
				c.ev.Inc(event.LoadHitSibling, 1)
			case srcL3Unshared:
				c.ev.Inc(event.LoadHitL3, 1)
			case srcMemory, srcRemote:
				if src == srcMemory {
					c.ev.Inc(event.LoadLLCMiss, 1)
				}
			}
		}
	}

	if write {
		// Stores retire through the store buffer; latency is hidden.
		return
	}
	if latency > m.cfg.L2Latency {
		// Long-latency load: becomes an outstanding miss.
		if len(c.outstanding) >= m.cfg.MSHRs {
			// MSHRs full: stall until the earliest completes.
			earliest := c.outstanding[0]
			for _, t := range c.outstanding {
				if t < earliest {
					earliest = t
				}
			}
			if wait := earliest - c.cycles; wait > 0 {
				c.stall(&c.resStall, wait)
			}
		}
		done := c.cycles + float64(latency)
		c.outstanding = append(c.outstanding, done)
		c.pending = append(c.pending, pendingFill{blk, done})
		c.lastLoadCompletion = done
		if len(c.pending) > 4*m.cfg.MSHRs {
			kept := c.pending[:0]
			for _, p := range c.pending {
				if p.done > c.cycles {
					kept = append(kept, p)
				}
			}
			c.pending = kept
		}
	} else {
		c.lastLoadCompletion = c.cycles + float64(latency)
	}
}

// upgradeToModified invalidates all other copies of blk (both sockets).
func (m *Machine) upgradeToModified(c *core, blk uint64) {
	for _, s := range m.sockets {
		slot := s.l3.Slot(blk)
		if slot < 0 {
			continue // under inclusion, no copy anywhere in this socket
		}
		keep := uint16(0)
		if s.id == c.sock {
			keep = uint16(1) << uint(c.id)
		}
		// Snoop responses from invalidation: report the best holder.
		if best := m.bestHolder(s.dir[slot]&^keep, blk); best != cache.Invalid {
			c.snoopHit(best)
		}
		m.adjustHolders(s, slot, blk, keep, true)
		if s.id != c.sock {
			s.l3.Invalidate(blk)
		} else {
			s.l3.MarkDirty(blk)
		}
	}
}

// execute runs one instruction on core c with full accounting.
func (m *Machine) execute(c *core, in *Instr) {
	c.dirty++
	m.instructionFetch(c, in)

	uops := float64(in.Uops)
	if uops < 1 {
		uops = 1
	}
	c.ev.Inc(event.InstRetired, 1)
	if in.Kernel {
		c.ev.Inc(event.InstKernel, 1)
	}
	c.ev.Inc(event.UopsRetired, uint64(uops))
	c.uopsExecuted += uops

	// Base issue time.
	c.advance(uops / float64(m.cfg.IssueWidth))

	// Decode-side friction.
	if in.Complex {
		c.stall(&c.ildStall, 0.6)
		c.stall(&c.decStall, 0.35)
	}
	if uops > 1 {
		c.stall(&c.ratStall, float64(0.18*(uops-1)))
	}

	switch in.Kind {
	case KindLoad:
		c.ev.Inc(event.Loads, 1)
		c.ev.Inc(event.MemAccesses, 1)
		m.dataAccess(c, in)
	case KindStore:
		c.ev.Inc(event.Stores, 1)
		c.ev.Inc(event.MemAccesses, 1)
		m.dataAccess(c, in)
	case KindBranch:
		c.ev.Inc(event.Branches, 1)
		c.branchesExecuted++
		correct := c.bp.Update(in.PC, in.Taken)
		if !correct {
			c.ev.Inc(event.BranchMisses, 1)
			p := float64(m.cfg.MispredictPenalty)
			// Flush: half the penalty is frontend refill, half wasted
			// backend slots. Wrong-path work executes but never retires.
			c.stall(&c.fetchStall, float64(p/2))
			c.advance(float64(p / 2))
			c.uopsExecuted += p // ≈ issueWidth × p/4 wrong-path µops
			c.branchesExecuted += float64(p / 8)
		}
	case KindInt:
		c.ev.Inc(event.IntOps, 1)
	case KindFP:
		c.ev.Inc(event.FPX87Ops, 1)
	case KindSSE:
		c.ev.Inc(event.SSEFPOps, 1)
	}

	// Dependence on an outstanding load stalls the backend.
	if in.Dependent && c.lastLoadCompletion > c.cycles {
		c.stall(&c.resStall, c.lastLoadCompletion-c.cycles)
	}
}

// snapshot folds the core's floating-point accounting into an event.Counts
// copy and returns it.
func (c *core) snapshot() event.Counts {
	ev := c.ev
	ev[event.Cycles] = uint64(c.cycles)
	ev[event.FetchStallCycles] = uint64(c.fetchStall)
	ev[event.ILDStallCycles] = uint64(c.ildStall)
	ev[event.DecoderStallCycles] = uint64(c.decStall)
	ev[event.RATStallCycles] = uint64(c.ratStall)
	ev[event.ResourceStallCycles] = uint64(c.resStall)
	ev[event.UopsExecuted] = uint64(c.uopsExecuted)
	ev[event.BranchesExecuted] = uint64(c.branchesExecuted)
	ev[event.MLPWeighted] = uint64(c.mlpWeighted)
	ev[event.MLPCycles] = uint64(c.mlpCycles)

	stall := c.fetchStall + c.resStall + float64(0.5*(c.ildStall+c.decStall+c.ratStall))
	if stall > c.cycles {
		stall = c.cycles
	}
	ev[event.UopsStallCycles] = uint64(stall)
	ev[event.UopsExeCycles] = uint64(c.cycles - stall)

	// TLB statistics.
	ev[event.ITLBMiss] = tlb.MissesAllLevels(c.tlbs.IStats)
	ev[event.ITLBWalkCycles] = c.tlbs.IStats.WalkCycles
	ev[event.DTLBMiss] = tlb.MissesAllLevels(c.tlbs.DStats)
	ev[event.DTLBWalkCycles] = c.tlbs.DStats.WalkCycles
	ev[event.DataHitSTLB] = c.tlbs.DStats.STLBHits
	return ev
}

// Snapshot returns machine-wide cumulative event counts (sum over cores).
//
// It is incremental: each core carries a dirty counter bumped per executed
// instruction, and only cores that executed since the previous Snapshot
// are re-summarized — their old contribution is swapped out of a cached
// machine-wide total. Cores that are idle or have exhausted their stream
// cost nothing per slice, so per-slice snapshotting is O(active
// cores·events) instead of O(cores·events). The result is identical to
// summing every core from scratch (snapshotFull, the test oracle).
func (m *Machine) Snapshot() event.Counts {
	for i, c := range m.cores {
		if c.dirty == m.snapDirty[i] {
			continue
		}
		fresh := c.snapshot()
		old := &m.snapCore[i]
		for e := range fresh {
			// Wraparound-exact: total + (fresh − old) in mod-2⁶⁴
			// arithmetic, and per-core accounting is monotone anyway.
			m.snapTotal[e] += fresh[e] - old[e]
		}
		m.snapCore[i] = fresh
		m.snapDirty[i] = c.dirty
	}
	return m.snapTotal
}

// snapshotFull recomputes the machine-wide total from scratch — the
// pre-incremental Snapshot path, kept as the oracle for tests asserting
// the two never diverge.
func (m *Machine) snapshotFull() event.Counts {
	var total event.Counts
	for _, c := range m.cores {
		ev := c.snapshot()
		total.Add(&ev)
	}
	return total
}

// RunResult holds the outcome of a Run: cumulative machine-wide event
// snapshots at each slice boundary (len Slices+1; entry 0 is all-zero at
// start, the last entry is the final total).
type RunResult struct {
	Snapshots    []event.Counts
	Instructions uint64
}

// Run executes the per-core sources round-robin (64-instruction quanta,
// which lets lines migrate between cores like a real multithreaded run)
// until every core has executed up to maxInstrPerCore instructions or its
// source is exhausted. It records `slices` evenly spaced cumulative
// snapshots for the PMC multiplexing layer.
func (m *Machine) Run(sources []Source, maxInstrPerCore int, slices int) (*RunResult, error) {
	res := &RunResult{}
	if err := m.RunInto(res, sources, maxInstrPerCore, slices); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing into a caller-owned result, reusing its snapshot
// storage. Measurement workers call it once per node-run so the ~Slices
// machine-wide count snapshots are allocated once per worker instead of
// once per run.
func (m *Machine) RunInto(res *RunResult, sources []Source, maxInstrPerCore int, slices int) error {
	return m.RunIntoCtx(context.Background(), res, sources, maxInstrPerCore, slices)
}

// RunIntoCtx is RunInto with cooperative cancellation: it checks ctx at
// every slice boundary and returns ctx.Err() once it is done, leaving res
// and the machine mid-run (Reset before reuse). The check reads nothing
// the simulation writes, so an uncanceled run is bit-identical to
// RunInto.
func (m *Machine) RunIntoCtx(ctx context.Context, res *RunResult, sources []Source, maxInstrPerCore int, slices int) error {
	if len(sources) != len(m.cores) {
		return fmt.Errorf("machine: %d sources for %d cores", len(sources), len(m.cores))
	}
	if maxInstrPerCore < 1 {
		return fmt.Errorf("machine: maxInstrPerCore must be ≥1")
	}
	if slices < 1 {
		slices = 1
	}

	const quantum = 64
	total := uint64(len(m.cores)) * uint64(maxInstrPerCore)
	sliceEvery := total / uint64(slices)
	if sliceEvery == 0 {
		sliceEvery = 1
	}

	res.Snapshots = append(res.Snapshots[:0], event.Counts{})
	res.Instructions = 0

	done := make([]bool, len(m.cores))
	executedPer := make([]int, len(m.cores))
	var executed, nextSlice uint64
	nextSlice = sliceEvery

	var in Instr
	for {
		anyLive := false
		for ci, c := range m.cores {
			if done[ci] {
				continue
			}
			anyLive = true
			for q := 0; q < quantum; q++ {
				if executedPer[ci] >= maxInstrPerCore || !sources[ci].Next(&in) {
					done[ci] = true
					break
				}
				m.execute(c, &in)
				executedPer[ci]++
				executed++
			}
		}
		for executed >= nextSlice && len(res.Snapshots) < slices {
			if err := ctx.Err(); err != nil {
				return err
			}
			res.Snapshots = append(res.Snapshots, m.Snapshot())
			nextSlice += sliceEvery
		}
		if !anyLive {
			break
		}
	}
	res.Snapshots = append(res.Snapshots, m.Snapshot())
	res.Instructions = executed
	return nil
}
