package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchio"
	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/cellcache"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim/branch"
	"repro/internal/sim/cache"
	"repro/internal/sim/event"
	"repro/internal/sim/machine"
	"repro/internal/sim/tlb"
	"repro/internal/trace"
)

// The probes time direct calls into the layers' public functions. Their
// inputs are fixed (probeSeed, not the run's seed), so the modelled
// statistics they report repeat exactly on every run of every commit that
// does not declare a change of simulated bits.

const (
	probeSeed   = 20140901
	probeInstr  = 12000 // per core
	probeSlices = 60
	// probeBudget is how long one probe repeats its call: long enough for
	// a median over many calls, short enough that thirty probes stay a
	// small part of the traced pass.
	probeBudget = 120 * time.Millisecond
)

// timeCalls calls fn once unmeasured, then repeatedly for budget (at
// least three times), and returns the median call's nanoseconds.
func timeCalls(budget time.Duration, fn func()) float64 {
	return timeParts(budget, func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	})
}

// timeParts is timeCalls for a call that times only part of itself.
func timeParts(budget time.Duration, fn func() time.Duration) float64 {
	fn()
	var ns []float64
	deadline := time.Now().Add(budget)
	for len(ns) < 3 || (len(ns) < 10000 && time.Now().Before(deadline)) {
		ns = append(ns, float64(fn().Nanoseconds()))
	}
	return median(ns)
}

// probeCell is one recorded characterization cell: the generator's output
// for every core, kept so that generation and execution time separately.
type probeCell struct {
	prof   trace.Profile
	instrs [][]machine.Instr // per core
}

func recordCell(prof trace.Profile, cores int) (*probeCell, error) {
	c := &probeCell{prof: prof, instrs: make([][]machine.Instr, cores)}
	for i := range c.instrs {
		g, err := trace.NewGenerator(prof, probeSeed, i, cores)
		if err != nil {
			return nil, err
		}
		buf := make([]machine.Instr, probeInstr)
		for k := range buf {
			if !g.Next(&buf[k]) {
				return nil, fmt.Errorf("generator for %s ended after %d instructions", prof.Name, k)
			}
		}
		c.instrs[i] = buf
	}
	return c, nil
}

func (c *probeCell) sources() []machine.Source {
	out := make([]machine.Source, len(c.instrs))
	for i, in := range c.instrs {
		out[i] = &machine.SliceSource{Instrs: in}
	}
	return out
}

// snapshotProbe is core 0's source for one run. Machine.Snapshot costs
// what it does only while cores are dirty, which from outside a run they
// never are, and a run spends too little of its time in it (under 1 %) for
// the difference between two runs to show it. So the probe calls it from
// inside: Run executes the cores round-robin in quanta of 64 instructions,
// and before core 0's first instruction of every round after the first —
// every core has executed a quantum since — the probe times one Snapshot.
// The counts are cumulative, so the extra calls change no result.
type snapshotProbe struct {
	src   machine.SliceSource
	mach  *machine.Machine
	calls int
	ns    []float64
}

func (p *snapshotProbe) Next(in *machine.Instr) bool {
	if p.calls > 0 && p.calls%64 == 0 {
		start := time.Now()
		p.mach.Snapshot()
		p.ns = append(p.ns, float64(time.Since(start).Nanoseconds()))
	}
	p.calls++
	return p.src.Next(in)
}

func (c *probeCell) total() float64 { return float64(len(c.instrs) * probeInstr) }

// runProbes fills the probe rows of m. A probe whose own check fails (the
// recorded run's counts differ from the live generator's) fails the run.
func runProbes(e *env, o *opLog, m metricSet) error {
	suiteNS := timeCalls(probeBudget, func() { workloads.Suite(workloads.DefaultConfig()) })
	m["workloads.suite_ms"] = suiteNS / 1e6
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		return err
	}
	mcfg := machine.Westmere()
	cores := mcfg.Cores()

	var cells []*probeCell
	var genNS, execNS, runNS, resetNS, snapNS, measureNS, instrs float64
	var counts event.Counts
	mach, err := machine.New(mcfg)
	if err != nil {
		return err
	}
	for _, name := range []string{"H-Sort", "S-PageRank"} {
		w, err := workloads.ByName(suite, name)
		if err != nil {
			return err
		}
		cell, err := recordCell(w.Profile, cores)
		if err != nil {
			return err
		}
		cells = append(cells, cell)
		instrs += cell.total()
		genNS += timeCalls(probeBudget, func() { recordCell(w.Profile, cores) })

		// Execution alone: the recorded stream replayed from memory. Reset
		// is timed on the machine the previous run left dirty.
		var res machine.RunResult
		var runErr error
		exec := func() time.Duration {
			mach.Reset()
			start := time.Now()
			if err := mach.RunInto(&res, cell.sources(), probeInstr, probeSlices); err != nil {
				runErr = err
			}
			return time.Since(start)
		}
		execNS += timeParts(probeBudget, exec)
		resetNS += timeParts(probeBudget, func() time.Duration {
			exec()
			start := time.Now()
			mach.Reset()
			return time.Since(start)
		})
		if runErr != nil {
			return runErr
		}
		recorded := res.Snapshots[len(res.Snapshots)-1]

		// Snapshot, timed where a run calls it: on cores that have all
		// executed since the last one.
		probe := &snapshotProbe{src: machine.SliceSource{Instrs: cell.instrs[0]}, mach: mach}
		srcs := cell.sources()
		srcs[0] = probe
		var probed machine.RunResult
		mach.Reset()
		if err := mach.RunInto(&probed, srcs, probeInstr, 1); err != nil {
			return err
		}
		if probed.Snapshots[len(probed.Snapshots)-1] != recorded {
			o.fail("probe %s: the snapshots timed mid-run changed the final counts", name)
		}
		snapNS += median(probe.ns)

		// Generation and execution together, as the grid runs a cell.
		var live machine.RunResult
		runNS += timeCalls(probeBudget, func() {
			srcs, err := trace.Sources(w.Profile, probeSeed, cores)
			if err != nil {
				runErr = err
				return
			}
			mach.Reset()
			if err := mach.RunInto(&live, srcs, probeInstr, probeSlices); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return runErr
		}
		if live.Snapshots[len(live.Snapshots)-1] != recorded {
			o.fail("probe %s: the recorded stream's final counts differ from the live generator's", name)
		}
		counts.Add(&recorded)

		measureNS += timeCalls(probeBudget, func() {
			c, err := perf.Measure(res.Snapshots, perf.DefaultMonitor())
			if err != nil {
				runErr = err
				return
			}
			perf.MetricVector(&c)
		})
		if runErr != nil {
			return runErr
		}
	}
	n := float64(len(cells))
	m["trace.gen_ns_per_instr"] = genNS / instrs
	m["sim.exec_ns_per_instr"] = execNS / instrs
	m["sim.run_ns_per_instr"] = runNS / instrs
	m["sim.reset_ms"] = resetNS / n / 1e6
	m["sim.snapshot_us"] = snapNS / n / 1e3
	m["perf.measure_us"] = measureNS / n / 1e3
	m["sim.new_ms"] = timeCalls(probeBudget, func() { machine.New(mcfg) }) / 1e6

	inst := float64(counts.Get(event.InstRetired))
	m["sim.ipc"] = inst / float64(counts.Get(event.Cycles))
	m["sim.l2_mpki"] = float64(counts.Get(event.L2Miss)) / inst * 1e3
	m["sim.l3_mpki"] = float64(counts.Get(event.L3Miss)) / inst * 1e3
	m["sim.dtlb_mpki"] = float64(counts.Get(event.DTLBMiss)) / inst * 1e3
	m["sim.branch_mpki"] = float64(counts.Get(event.BranchMisses)) / inst * 1e3

	probeComponents(m, mcfg, cells[0])
	if err := probeCoordination(e, o, m, suite); err != nil {
		return err
	}
	return probeStores(e, o, m)
}

// probeComponents replays the first cell's recorded addresses and branches
// through one cache, TLB and predictor at a time.
func probeComponents(m metricSet, mcfg machine.Config, cell *probeCell) {
	type access struct {
		addr  uint64
		write bool
	}
	var data []access
	var branches []machine.Instr
	for _, core := range cell.instrs {
		for _, in := range core {
			switch in.Kind {
			case machine.KindLoad, machine.KindStore:
				data = append(data, access{in.Addr, in.Kind == machine.KindStore})
			case machine.KindBranch:
				branches = append(branches, in)
			}
		}
	}
	cacheProbe := func(cfg cache.Config) float64 {
		c := cache.New(cfg)
		ns := timeParts(probeBudget, func() time.Duration {
			c.Reset() // modelled caches start empty
			start := time.Now()
			for _, a := range data {
				if !c.Access(a.addr, a.write) {
					st := cache.Exclusive
					if a.write {
						st = cache.Modified
					}
					c.Fill(a.addr, st)
				}
			}
			return time.Since(start)
		})
		return ns / float64(len(data))
	}
	m["sim.cache_l1d_ns_per_access"] = cacheProbe(mcfg.L1D)
	m["sim.cache_l3_ns_per_access"] = cacheProbe(mcfg.L3)

	tlbs := tlb.New(mcfg.ITLB, mcfg.DTLB, mcfg.STLB, mcfg.TLBWalkCycles)
	m["sim.tlb_ns_per_translate"] = timeParts(probeBudget, func() time.Duration {
		tlbs.Reset()
		start := time.Now()
		for _, a := range data {
			tlbs.TranslateD(a.addr)
		}
		return time.Since(start)
	}) / float64(len(data))

	bp := branch.New(mcfg.BranchHistoryBits)
	m["sim.branch_ns_per_update"] = timeParts(probeBudget, func() time.Duration {
		bp.Reset()
		start := time.Now()
		for _, in := range branches {
			bp.Update(in.PC, in.Taken)
		}
		return time.Since(start)
	}) / float64(len(branches))
}

// probeCoordination times the pure functions a coordinator runs per job
// and per unit: cell keys, planning, the reduction, and the observation
// matrix's trip through JSON.
func probeCoordination(e *env, o *opLog, m metricSet, suite []workloads.Workload) error {
	spec, err := smallSpec(e, probeSeed)
	if err != nil {
		return err
	}
	if spec, err = spec.Normalized(); err != nil {
		return err
	}
	w, err := workloads.ByName(suite, "H-Sort")
	if err != nil {
		return err
	}
	m["cluster.cellkey_us"] = timeCalls(probeBudget, func() { cluster.CellKey(w, spec.Cluster, 0) }) / 1e3
	m["shard.plan_us"] = timeCalls(probeBudget, func() { shard.Plan(spec, 8) }) / 1e3

	// One unit's observation matrix, as a worker returns it: one workload
	// on one node.
	ccfg := spec.Cluster
	ccfg.SlaveNodes = 1
	om, err := core.CharacterizeObservationsCtx(e.ctx, []workloads.Workload{w}, ccfg, nil)
	if err != nil {
		return err
	}
	wire, err := benchio.MarshalCanonical(benchio.EncodeObservations(om))
	if err != nil {
		return err
	}
	m["benchio.encode_obs_us"] = timeCalls(probeBudget, func() {
		benchio.MarshalCanonical(benchio.EncodeObservations(om))
	}) / 1e3
	var decodeErr error
	m["benchio.decode_obs_us"] = timeCalls(probeBudget, func() {
		var oj benchio.ObservationsJSON
		if err := json.Unmarshal(wire, &oj); err != nil {
			decodeErr = err
		} else if _, err := oj.Observations(); err != nil {
			decodeErr = err
		}
	}) / 1e3
	if decodeErr != nil {
		o.fail("probe: decoding an encoded observation matrix: %v", decodeErr)
	}
	m["benchio.obs_bytes_per_cell"] = float64(len(wire))
	m["cluster.reduce_us"] = timeCalls(probeBudget, func() { cluster.ReduceCells(om.Cells[0]) }) / 1e3
	return nil
}

// probeStores times the layers that touch the disk: the fsynced file
// write, the cell cache on top of it, and a whole job through a manager
// with a journal and a result store but nothing to compute.
func probeStores(e *env, o *opLog, m metricSet) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var ioErr error
	payload := make([]byte, 4096)
	m["fsio.write_sync_ms"] = timeCalls(probeBudget, func() {
		if err := fsio.WriteFileSync(filepath.Join(dir, "probe.json"), payload, 0o644); err != nil {
			ioErr = err
		}
	}) / 1e6
	if ioErr != nil {
		return ioErr
	}

	store, err := cellcache.Open(filepath.Join(dir, "cells"), 0, 0, nil)
	if err != nil {
		return err
	}
	column := [][]float64{make([]float64, perf.NumMetrics)}
	for i := range column[0] {
		column[0][i] = 1 / float64(i+3)
	}
	key := func(i int) string { return sha256Hex([]byte(fmt.Sprint("probe column ", i))) }
	puts := 0
	m["cellcache.put_ms"] = timeCalls(probeBudget, func() {
		store.PutCell("H-Sort", key(puts), column)
		puts++
	}) / 1e6
	hit, miss := true, false
	m["cellcache.get_hit_us"] = timeCalls(probeBudget, func() {
		_, ok := store.GetCell("H-Sort", key(0), 1, perf.NumMetrics)
		hit = hit && ok
	}) / 1e3
	m["cellcache.get_miss_us"] = timeCalls(probeBudget, func() {
		_, ok := store.GetCell("H-Sort", key(-1), 1, perf.NumMetrics)
		miss = miss || ok
	}) / 1e3
	if !hit || miss {
		o.fail("probe: cell cache served hit=%v for a stored column, hit=%v for an absent one", hit, miss)
	}

	stub := []byte("{\"stub\": true}\n")
	mgr, err := service.New(service.Config{
		DataDir:     filepath.Join(dir, "results"),
		JournalPath: filepath.Join(dir, "journal.ndjson"),
		TraceBuffer: -1,
		Execute: func(_ context.Context, _ service.JobSpec, _ core.Progress) ([]byte, error) {
			return stub, nil
		},
	})
	if err != nil {
		return err
	}
	p := &inproc{m: mgr, poll: 20 * time.Microsecond}
	defer p.close()
	jobs := uint64(0)
	var jobErr error
	m["service.stub_job_ms"] = timeCalls(probeBudget, func() {
		jobs++
		spec, err := smallSpec(e, probeSeed+jobs)
		if err == nil {
			_, _, err = p.run(e.ctx, spec)
		}
		if err != nil {
			jobErr = err
		}
	}) / 1e6
	if jobErr != nil {
		o.fail("probe: stub job: %v", jobErr)
	}
	return nil
}
