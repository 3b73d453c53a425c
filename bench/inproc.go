package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/benchio"
	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/cluster/kmeans"
	"repro/internal/core"
	"repro/internal/rng"
)

// stageTrace collects what core.StageTimer and the per-cell Progress
// calls report about one operation: the pipeline's own instrument, read
// from outside.
type stageTrace struct {
	mu     sync.Mutex
	timer  *core.StageTimer
	stages map[core.Stage]float64 // seconds
	cells  []time.Time            // completion time of each grid cell
	began  time.Time
	first  time.Time // the first stage's start: what precedes it is the prelude
	encode float64   // seconds, the canonical encode after the last stage
}

func newStageTrace() *stageTrace {
	s := &stageTrace{stages: map[core.Stage]float64{}, began: time.Now()}
	cell := func(stage core.Stage, done, total int) {
		now := time.Now()
		s.mu.Lock()
		if s.first.IsZero() {
			s.first = now
		}
		if stage == core.StageCharacterize && total > 0 {
			s.cells = append(s.cells, now)
		}
		s.mu.Unlock()
	}
	s.timer = core.NewStageTimer(cell, func(stage core.Stage, seconds float64) {
		s.mu.Lock()
		s.stages[stage] += seconds
		s.mu.Unlock()
	})
	return s
}

// progress is nil for a nil trace, so ops take an optional *stageTrace.
func (s *stageTrace) progress() core.Progress {
	if s == nil {
		return nil
	}
	return s.timer.Progress
}

// pipelineDone closes the last stage at the moment the pipeline returned;
// what follows (the canonical encode) is booked separately.
func (s *stageTrace) pipelineDone() {
	if s != nil {
		s.timer.Finish()
	}
}

func (s *stageTrace) ms(stage core.Stage) float64 { return s.stages[stage] * 1e3 }

// prelude is the time before the first stage, in seconds: for core.Run
// the suite synthesis, for core.Analyze the input check.
func (s *stageTrace) prelude() float64 { return s.first.Sub(s.began).Seconds() }

// accounted is the share of an op's wall time that the prelude, the stage
// spans and the encode cover.
func (s *stageTrace) accounted(wall time.Duration) float64 {
	total := s.prelude() + s.encode
	for _, v := range s.stages {
		total += v
	}
	return total / wall.Seconds()
}

func (s *stageTrace) analysisMS() float64 {
	return s.ms(core.StagePCA) + s.ms(core.StageHierarchical) + s.ms(core.StageKMeans) + s.ms(core.StageSelect)
}

// cellMS returns the gaps between successive cell completions, the first
// one counted from the start of the characterize stage: with one grid
// worker that is each cell's own time.
func (s *stageTrace) cellMS() []float64 {
	out := make([]float64, 0, len(s.cells))
	prev := s.first
	for _, t := range s.cells {
		out = append(out, ms(t.Sub(prev)))
		prev = t
	}
	return out
}

// encodeAnalysis renders the result bytes and books the time on st.
func encodeAnalysis(an *core.Analysis, st *stageTrace) ([]byte, error) {
	start := time.Now()
	data, err := benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
	if st != nil {
		st.encode = time.Since(start).Seconds()
	}
	return data, err
}

// checkAnalysis is the structural half of the oracle: the shape any
// correct analysis of rows workloads has, whatever the seed.
func checkAnalysis(an *core.Analysis, rows int, acfg core.AnalysisConfig) error {
	switch {
	case len(an.Dataset.Labels) != rows:
		return fmt.Errorf("analysis has %d rows, want %d", len(an.Dataset.Labels), rows)
	case an.KBest.K < acfg.KMin || an.KBest.K > acfg.KMax:
		return fmt.Errorf("best K %d outside the scanned range [%d,%d]", an.KBest.K, acfg.KMin, acfg.KMax)
	case len(an.SubsetNames()) != an.KBest.K:
		return fmt.Errorf("subset has %d workloads for K=%d", len(an.SubsetNames()), an.KBest.K)
	case an.NumPCs < 1 || an.Variance <= 0 || an.Variance > 1:
		return fmt.Errorf("implausible PCA: %d PCs retaining %v", an.NumPCs, an.Variance)
	}
	return nil
}

// sameBytes fails the run when two results that must be byte-identical
// are not. For single-client loops only.
type sameBytes struct {
	o    *opLog
	seen map[string][]byte
}

func newSameBytes(o *opLog) *sameBytes { return &sameBytes{o: o, seen: map[string][]byte{}} }

func (s *sameBytes) check(key string, data []byte, what string) {
	prev, ok := s.seen[key]
	s.seen[key] = data
	if ok && !bytes.Equal(prev, data) {
		s.o.fail("%s differs from an earlier result of the same spec (%s)", what, key)
	}
}

// --- paper-grid ---------------------------------------------------------

// gridConfig is the existing harness scale (bench_test.go): 32 built-ins
// × 2 nodes × 12 000 instr/core × 60 slices = 9 216 000 simulated
// instructions per operation. Modelled caches start empty: the grid
// resets its machine before every cell.
func gridConfig(smoke bool, nodes int, seed uint64, par int) (cluster.Config, core.AnalysisConfig) {
	ccfg := cluster.DefaultConfig()
	ccfg.SlaveNodes = nodes
	ccfg.InstructionsPerCore = 12000
	ccfg.Slices = 60
	if smoke {
		ccfg.SlaveNodes, ccfg.InstructionsPerCore, ccfg.Slices = 1, 1000, 10
	}
	ccfg.Seed = seed
	ccfg.Parallelism = par
	acfg := core.DefaultAnalysis()
	acfg.Parallelism = par
	return ccfg, acfg
}

// gridOp is one paper-grid operation: spec in, canonical result bytes out.
func gridOp(e *env, nodes int, seed uint64, par int, st *stageTrace) ([]byte, *core.Analysis, time.Duration, error) {
	ccfg, acfg := gridConfig(e.smoke, nodes, seed, par)
	start := time.Now()
	an, err := core.RunCtx(e.ctx, workloads.DefaultConfig(), ccfg, acfg, st.progress())
	st.pipelineDone()
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := encodeAnalysis(an, st)
	if err != nil {
		return nil, nil, 0, err
	}
	d := time.Since(start)
	return data, an, d, checkAnalysis(an, len(workloads.BuiltinNames()), acfg)
}

// gridSeeds is how many distinct cluster seeds the loop cycles through:
// op i uses seed + i mod gridSeeds, so from the fourth op on every result
// must repeat an earlier one byte for byte. The pipeline keeps no cache,
// so a repeated seed is full work.
const gridSeeds = 3

// gridNodes is the measured grid's node count.
const gridNodes = 2

// warmGrid is the discarded warm-up op, on half the grid (one node): it
// faults in the code and sizes the heap.
func warmGrid(e *env) error {
	_, _, _, err := gridOp(e, gridNodes/2, e.seed, e.nproc, nil)
	return err
}

func runPaperGrid(e *env) (*opLog, error) {
	o := &opLog{}
	var err error
	if _, o.setup, err = medianSetup(func() (struct{}, error) { return struct{}{}, warmGrid(e) }, nil); err != nil {
		return nil, fmt.Errorf("paper-grid set-up: %w", err)
	}
	same := newSameBytes(o)
	o.window = closedLoop(e, o, 1, e.window(), 1, func(i int) (time.Duration, error) {
		seed := e.seed + uint64(i%gridSeeds)
		data, _, d, err := gridOp(e, gridNodes, seed, e.nproc, nil)
		if err == nil {
			same.check(fmt.Sprint("cluster seed ", seed), data, fmt.Sprintf("op %d", i))
			if i == 0 {
				o.pin("paper-grid/op0", data)
			}
		}
		return d, err
	})
	return o, nil
}

// ledgerPaperGrid is the traced pass over paper-grid: the same spec once
// with one grid worker under the stage timer and then, for the rest of
// the window, with nproc workers — all of which must yield the same bytes
// (seq == par).
func ledgerPaperGrid(e *env, o *opLog, m metricSet, window time.Duration) error {
	if err := warmGrid(e); err != nil {
		return fmt.Errorf("paper-grid warm-up: %w", err)
	}
	same := newSameBytes(o)
	st := newStageTrace()
	data, an, seq, err := gridOp(e, gridNodes, e.seed, 1, st)
	if err != nil {
		return fmt.Errorf("paper-grid sequential: %w", err)
	}
	o.ok(seq)
	same.check("seq==par", data, "sequential run")
	o.pin("paper-grid/op0", data)

	var par []float64
	closedLoop(e, o, 1, window, 1, func(i int) (time.Duration, error) {
		data, _, d, err := gridOp(e, gridNodes, e.seed, e.nproc, nil)
		if err == nil {
			same.check("seq==par", data, fmt.Sprintf("parallel run %d", i))
			par = append(par, ms(d))
		}
		return d, err
	})
	if len(par) == 0 {
		return fmt.Errorf("paper-grid: no parallel op completed")
	}

	cells := sortedCopy(st.cellMS())
	m["core.characterize_s"] = st.stages[core.StageCharacterize]
	m["core.analysis_ms"] = st.analysisMS()
	m["core.seq_op_s"] = seq.Seconds()
	m["cluster.cell_ms_p50"] = quantile(cells, 0.5)
	m["cluster.cell_ms_max"] = maxOf(cells)
	m["cluster.par_efficiency"] = ms(seq) / (median(par) * float64(e.nproc))
	m["fidelity.best_k"] = float64(an.KBest.K)
	m["fidelity.num_pcs"] = float64(an.NumPCs)
	m["fidelity.variance_retained"] = an.Variance
	ratio := st.accounted(seq)
	m["core.layer_sum_ratio"] = ratio
	if ratio < 0.95 || ratio > 1.05 {
		o.fail("paper-grid: stage spans sum to %.3f of the traced op's wall (want 0.95–1.05)", ratio)
	}
	return nil
}

// --- analysis-wide ------------------------------------------------------

// wideVariants is how many distinct matrices analysis-wide cycles through.
// K-means' iteration count, and with it an op's cost, depends on the noise
// drawn (± 20 % between draws), so one matrix per run would make the run's
// median a property of its seed; over eight draws it is a property of the
// code. Op i analyses matrix i mod wideVariants, so from the ninth op on
// every result must repeat an earlier one byte for byte.
const wideVariants = 8

// buildWideInput makes the 1024 × 45 matrices: the 32 built-in rows
// (characterized here at 2 nodes × 6000 instr) replicated 32× with
// multiplicative 1+0.08·N(0,1) noise, variant v drawn from rng.New(seed+v)
// — the shape `subset -in big.csv` or a registry sweep hands the analysis.
func buildWideInput(e *env) ([]*core.Dataset, error) {
	ccfg := cluster.DefaultConfig()
	ccfg.SlaveNodes, ccfg.InstructionsPerCore = 2, 6000
	replicas := 32
	if e.smoke {
		ccfg.SlaveNodes, ccfg.InstructionsPerCore, ccfg.Slices = 1, 1000, 10
		replicas = 4
	}
	ccfg.Parallelism = e.nproc
	base, err := core.Characterize(workloads.DefaultConfig(), ccfg)
	if err != nil {
		return nil, err
	}
	variants := make([]*core.Dataset, wideVariants)
	for v := range variants {
		r := rng.New(e.seed + uint64(v))
		ds := &core.Dataset{Metrics: base.Metrics}
		for rep := 0; rep < replicas; rep++ {
			for i, row := range base.Rows {
				noisy := make([]float64, len(row))
				for j, x := range row {
					noisy[j] = x * (1 + 0.08*r.NormFloat64())
				}
				ds.Rows = append(ds.Rows, noisy)
				ds.Labels = append(ds.Labels, fmt.Sprintf("%s#%d", base.Labels[i], rep))
			}
		}
		variants[v] = ds
	}
	return variants, nil
}

func wideOp(e *env, ds *core.Dataset, st *stageTrace) ([]byte, *core.Analysis, time.Duration, error) {
	acfg := core.DefaultAnalysis()
	acfg.Parallelism = e.nproc
	start := time.Now()
	an, err := core.AnalyzeCtx(e.ctx, ds, acfg, st.progress())
	st.pipelineDone()
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := encodeAnalysis(an, st)
	if err != nil {
		return nil, nil, 0, err
	}
	d := time.Since(start)
	return data, an, d, checkAnalysis(an, len(ds.Rows), acfg)
}

// setupWide builds the matrices and runs one discarded warm-up analysis on
// the first one's first 128 rows.
func setupWide(e *env) ([]*core.Dataset, error) {
	variants, err := buildWideInput(e)
	if err != nil {
		return nil, err
	}
	ds := variants[0]
	warm := &core.Dataset{Labels: ds.Labels[:128], Metrics: ds.Metrics, Rows: ds.Rows[:128]}
	_, _, _, err = wideOp(e, warm, nil)
	return variants, err
}

func runAnalysisWide(e *env) (*opLog, error) {
	o := &opLog{}
	variants, setup, err := medianSetup(func() ([]*core.Dataset, error) { return setupWide(e) }, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis-wide set-up: %w", err)
	}
	o.setup = setup
	same := newSameBytes(o)
	o.window = closedLoop(e, o, 1, e.window(), 1, func(i int) (time.Duration, error) {
		v := i % wideVariants
		data, _, d, err := wideOp(e, variants[v], nil)
		if err == nil {
			same.check(fmt.Sprint("matrix ", v), data, fmt.Sprintf("op %d", i))
			if i == 0 {
				o.pin("analysis-wide/op0", data)
			}
		}
		return d, err
	})
	return o, nil
}

// ledgerAnalysisWide runs the analysis of the first matrix under the stage
// timer (at least twice, every result equal) and one K-means run at the
// paper's K. It stays on one matrix so that the rows of two traced runs
// compare however long each ran.
func ledgerAnalysisWide(e *env, o *opLog, m metricSet, window time.Duration) error {
	variants, err := setupWide(e)
	if err != nil {
		return fmt.Errorf("analysis-wide set-up: %w", err)
	}
	ds := variants[0]
	same := newSameBytes(o)
	stages := map[core.Stage][]float64{}
	var enc, ratios []float64
	var last *core.Analysis
	var bytesLen int
	closedLoop(e, o, 1, window, 2, func(i int) (time.Duration, error) {
		st := newStageTrace()
		data, an, d, err := wideOp(e, ds, st)
		if err != nil {
			return d, err
		}
		same.check("one matrix", data, fmt.Sprintf("analysis %d", i))
		if i == 0 {
			o.pin("analysis-wide/op0", data)
		}
		for _, s := range []core.Stage{core.StagePCA, core.StageHierarchical, core.StageKMeans, core.StageSelect} {
			stages[s] = append(stages[s], st.ms(s))
		}
		enc = append(enc, st.encode*1e3)
		ratios = append(ratios, st.accounted(d))
		last, bytesLen = an, len(data)
		return d, nil
	})
	if last == nil {
		return fmt.Errorf("analysis-wide: no analysis completed")
	}
	k7 := timeCalls(probeBudget, func() {
		if _, err := kmeans.Run(last.Scores, 7, kmeans.Config{Restarts: 16, Seed: 7, Parallelism: e.nproc}); err != nil {
			o.fail("kmeans.Run(k=7): %v", err)
		}
	})
	m["pca.fit_ms"] = median(stages[core.StagePCA])
	m["hier.cluster_ms"] = median(stages[core.StageHierarchical])
	m["kmeans.bestk_ms"] = median(stages[core.StageKMeans])
	m["core.select_ms"] = median(stages[core.StageSelect])
	m["kmeans.run_k7_ms"] = k7 / 1e6
	m["benchio.encode_analysis_ms"] = median(enc)
	m["benchio.analysis_bytes"] = float64(bytesLen)
	ratio := median(ratios)
	m["analysis.layer_sum_ratio"] = ratio
	if ratio < 0.95 || ratio > 1.05 {
		o.fail("analysis-wide: stage spans sum to %.3f of the op's wall (want 0.95–1.05)", ratio)
	}
	return nil
}
