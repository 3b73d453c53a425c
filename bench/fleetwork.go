package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/bigdata/workloads"
	"repro/internal/service"
)

// --- the generated specs ------------------------------------------------

func jobSpec(e *env, names []string, seed uint64) (service.JobSpec, error) {
	nodes, instr, kmax := 2, 6000, 3
	if e.smoke {
		nodes, instr = 1, 1000
	}
	req := service.JobRequest{Workloads: names, Seed: &seed, Nodes: &nodes, Instructions: &instr, KMax: &kmax}
	return req.ToSpec()
}

// smallSpec is the CI-scale job scripts/smoke_bdcoord.sh submits: 4
// workloads × 2 nodes × 6000 instr, planned as 8 one-cell units.
func smallSpec(e *env, seed uint64) (service.JobSpec, error) {
	return jobSpec(e, []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, seed)
}

// coldNames is job A: 8 workloads, 16 columns, none of them cached.
var coldNames = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep", "H-WordCount", "S-WordCount", "H-Kmeans", "S-Kmeans"}

func coldSpec(e *env, seed uint64) (service.JobSpec, error) { return jobSpec(e, coldNames, seed) }

// overlapVariants is how many distinct B jobs one A supports: B_v is A
// with its last H-/S- pair swapped for the v-th built-in pair A does not
// use, so each B finds 12 of its 16 columns in the coordinator's cell
// cache (A wrote them) and computes and stores 4.
func overlapPairs() [][2]string {
	used := map[string]bool{}
	for _, n := range coldNames {
		used[n] = true
	}
	var pairs [][2]string
	names := workloads.BuiltinNames() // H-x, S-x per algorithm
	for i := 0; i+1 < len(names); i += 2 {
		if !used[names[i]] {
			pairs = append(pairs, [2]string{names[i], names[i+1]})
		}
	}
	return pairs
}

func overlapSpec(e *env, seed uint64, variant int) (service.JobSpec, error) {
	pairs := overlapPairs()
	p := pairs[variant%len(pairs)]
	names := append(append([]string(nil), coldNames[:len(coldNames)-2]...), p[0], p[1])
	return jobSpec(e, names, seed)
}

// variantsPerCycle is how many B jobs follow each A in fleet-overlap.
const variantsPerCycle = 6

// --- the in-process oracle ---------------------------------------------

// inproc is an in-process service.Manager with no disk behind it: the
// ratio base and the byte-identity oracle for what the fleet returns.
type inproc struct {
	m    *service.Manager
	poll time.Duration // how often run looks at the job's state
}

func newInproc(e *env) (*inproc, error) {
	m, err := service.New(service.Config{Parallelism: e.nproc, TraceBuffer: -1})
	if err != nil {
		return nil, err
	}
	return &inproc{m: m, poll: time.Millisecond}, nil
}

func (p *inproc) close() { p.m.Close() }

func (p *inproc) run(ctx context.Context, spec service.JobSpec) ([]byte, time.Duration, error) {
	start := time.Now()
	st, err := p.m.Submit(spec)
	if err != nil {
		return nil, 0, err
	}
	for st.State != service.StateDone {
		if st.State == service.StateFailed || st.State == service.StateCanceled {
			return nil, 0, fmt.Errorf("in-process job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(p.poll):
		}
		var ok bool
		if st, ok = p.m.Get(st.ID); !ok {
			return nil, 0, fmt.Errorf("in-process job disappeared")
		}
	}
	data, ok := p.m.Result(st.ID)
	if !ok {
		return nil, 0, fmt.Errorf("in-process job %s has no result", st.ID)
	}
	return data, time.Since(start), nil
}

// verify runs each spec in process and fails the run for every fleet
// result that differs; it returns the in-process latencies.
func verifyInproc(e *env, o *opLog, what string, specs []service.JobSpec, fleetBytes [][]byte) []time.Duration {
	p, err := newInproc(e)
	if err != nil {
		o.fail("%s oracle: %v", what, err)
		return nil
	}
	defer p.close()
	var lat []time.Duration
	for i, spec := range specs {
		data, d, err := p.run(e.ctx, spec)
		switch {
		case err != nil:
			o.fail("%s oracle, job %d: %v", what, i, err)
		case !bytes.Equal(data, fleetBytes[i]):
			o.fail("%s job %d: fleet bytes differ from the in-process run of the same spec", what, i)
		default:
			lat = append(lat, d)
		}
	}
	return lat
}

// --- set-up -------------------------------------------------------------

// warmFleet boots a fleet and pushes two discarded small jobs through it
// (seeds outside the measured list), so the first timed op does not pay
// for first-use costs in three fresh processes.
func warmFleet(e *env, traced bool) (*fleet, error) {
	f, err := bootFleet(e, traced)
	if err != nil {
		return nil, err
	}
	for k := uint64(1); k <= 2; k++ {
		spec, err := smallSpec(e, e.seed-k)
		if err == nil {
			_, err = f.runJob(e.ctx, spec)
		}
		if err != nil {
			f.stop(true)
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return f, nil
}

func discardFleet(f *fleet) { f.stop(false) }

// clients is the number of closed-loop clients of fleet-small-jobs: two,
// the smallest number that submits jobs at the same time, and never more
// than the box has processors.
func clients(e *env) int { return min(2, e.nproc) }

// oracleJobs is how many of a fleet run's first jobs are recomputed in
// process and compared byte for byte.
const oracleJobs = 4

// --- fleet-small-jobs ---------------------------------------------------

// smallJobs is the loop of fleet-small-jobs on a booted fleet: distinct
// CI-scale jobs, job i seeded seed+i. It returns the window and the first
// jobs' specs and bytes for the oracle; onJob, when set, sees every
// finished job (from either client's goroutine).
func smallJobs(e *env, o *opLog, f *fleet, window time.Duration, minOps int, onJob func(jobResult)) (time.Duration, []service.JobSpec, [][]byte) {
	specs := make([]service.JobSpec, oracleJobs)
	datas := make([][]byte, oracleJobs)
	w := closedLoop(e, o, clients(e), window, minOps, func(i int) (time.Duration, error) {
		spec, err := smallSpec(e, e.seed+uint64(i))
		if err != nil {
			return 0, err
		}
		r, err := f.runJob(e.ctx, spec)
		if err != nil {
			return 0, err
		}
		if r.hit {
			return 0, fmt.Errorf("distinct job %s answered from the result cache", r.id)
		}
		if i < oracleJobs {
			specs[i], datas[i] = spec, r.data
		}
		if i == 0 {
			o.pin("fleet-small-jobs/job0", r.data)
		}
		if onJob != nil {
			onJob(r)
		}
		return r.latency, nil
	})
	return w, specs, datas
}

func runFleetSmallJobs(e *env) (*opLog, error) {
	o := &opLog{}
	f, setup, err := medianSetup(func() (*fleet, error) { return warmFleet(e, false) }, discardFleet)
	if err != nil {
		return nil, fmt.Errorf("fleet-small-jobs set-up: %w", err)
	}
	o.setup = setup
	var specs []service.JobSpec
	var datas [][]byte
	o.window, specs, datas = smallJobs(e, o, f, e.window(), oracleJobs, nil)
	f.stop(o.failed > 0)
	if o.failed == 0 {
		verifyInproc(e, o, "fleet-small-jobs", specs, datas)
	}
	return o, nil
}

// --- fleet-overlap ------------------------------------------------------

// overlapJobs runs fleet-overlap's jobs on a booted fleet: cycle k is job A
// on seed+k followed by variantsPerCycle B jobs on the same seed. label
// prefixes the golden pins: the traced pass shares its fleet with other
// workloads' jobs and so runs these on seeds of its own.
type overlapJobs struct {
	e     *env
	o     *opLog
	f     *fleet
	seed  uint64
	label string
	// the first two B jobs, kept for the oracle
	specs []service.JobSpec
	datas [][]byte
}

func (c *overlapJobs) cold(cycle int) (jobResult, error) {
	spec, err := coldSpec(c.e, c.seed+uint64(cycle))
	if err != nil {
		return jobResult{}, err
	}
	a, err := c.f.runJob(c.e.ctx, spec)
	if err != nil {
		return jobResult{}, fmt.Errorf("cold job: %w", err)
	}
	if a.hit {
		return jobResult{}, fmt.Errorf("cold job %s answered from the result cache", a.id)
	}
	if cycle == 0 {
		c.o.pin(c.label+"/cold0", a.data)
	}
	return a, nil
}

func (c *overlapJobs) variant(cycle, variant int) (jobResult, error) {
	spec, err := overlapSpec(c.e, c.seed+uint64(cycle), variant)
	if err != nil {
		return jobResult{}, err
	}
	b, err := c.f.runJob(c.e.ctx, spec)
	if err != nil {
		return jobResult{}, err
	}
	if b.hit {
		return jobResult{}, fmt.Errorf("distinct job %s answered from the result cache", b.id)
	}
	if cycle == 0 && variant < 2 {
		if variant == 0 {
			c.o.pin(c.label+"/variant0", b.data)
		}
		c.specs, c.datas = append(c.specs, spec), append(c.datas, b.data)
	}
	return b, nil
}

func runFleetOverlap(e *env) (*opLog, error) {
	o := &opLog{}
	f, setup, err := medianSetup(func() (*fleet, error) { return warmFleet(e, false) }, discardFleet)
	if err != nil {
		return nil, fmt.Errorf("fleet-overlap set-up: %w", err)
	}
	o.setup = setup
	c := &overlapJobs{e: e, o: o, f: f, seed: e.seed, label: "fleet-overlap"}
	// Op i is B variant i mod variantsPerCycle of cycle i / variantsPerCycle;
	// the first of a cycle runs the cycle's A first, outside its latency.
	o.window = closedLoop(e, o, 1, e.window(), 2, func(i int) (time.Duration, error) {
		cycle, variant := i/variantsPerCycle, i%variantsPerCycle
		if variant == 0 {
			a, err := c.cold(cycle)
			if err != nil {
				return 0, err
			}
			o.untimed += a.latency // one client: no lock needed
		}
		b, err := c.variant(cycle, variant)
		return b.latency, err
	})
	f.stop(o.failed > 0)
	if o.failed == 0 {
		// Job-B bytes must equal a cold run that never saw a cache.
		verifyInproc(e, o, "fleet-overlap", c.specs, c.datas)
	}
	return o, nil
}

// --- fleet-replay -------------------------------------------------------

// replayFleet is a warmed fleet that has already computed job A once.
type replayFleet struct {
	f    *fleet
	spec service.JobSpec
	cold jobResult
}

func setupReplay(e *env, traced bool) (*replayFleet, error) {
	f, err := warmFleet(e, traced)
	if err != nil {
		return nil, err
	}
	spec, err := coldSpec(e, e.seed)
	if err == nil {
		var cold jobResult
		if cold, err = f.runJob(e.ctx, spec); err == nil {
			return &replayFleet{f: f, spec: spec, cold: cold}, nil
		}
	}
	f.stop(true)
	return nil, fmt.Errorf("cold job before the replays: %w", err)
}

// replay resubmits A: the answer must come from the result cache and
// carry the first run's bytes.
func (r *replayFleet) replay(ctx context.Context) (time.Duration, error) {
	got, err := r.f.runJob(ctx, r.spec)
	switch {
	case err != nil:
		return 0, err
	case !got.hit:
		return 0, fmt.Errorf("resubmitted job %s was not answered from the result cache", got.id)
	case !bytes.Equal(got.data, r.cold.data):
		return 0, fmt.Errorf("replayed job %s differs from its first result", got.id)
	}
	return got.latency, nil
}

func runFleetReplay(e *env) (*opLog, error) {
	o := &opLog{}
	r, setup, err := medianSetup(func() (*replayFleet, error) { return setupReplay(e, false) },
		func(r *replayFleet) { r.f.stop(false) })
	if err != nil {
		return nil, fmt.Errorf("fleet-replay set-up: %w", err)
	}
	o.setup = setup
	o.pin("fleet-replay/cold0", r.cold.data)
	o.window = closedLoop(e, o, 1, e.window(), 10, func(int) (time.Duration, error) { return r.replay(e.ctx) })
	r.f.stop(o.failed > 0)
	if o.failed == 0 {
		verifyInproc(e, o, "fleet-replay", []service.JobSpec{r.spec}, [][]byte{r.cold.data})
	}
	return o, nil
}
