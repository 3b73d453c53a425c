package shard

import (
	"runtime"
	"testing"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/cluster/kmeans"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/sim/machine"
	"repro/internal/trace"
)

// tinySpec mirrors the service package's fast test job: 2-core node,
// shrunken caches.
func tinySpec(names ...string) service.JobSpec {
	m := machine.Westmere()
	m.Sockets, m.CoresPerSocket = 1, 2
	m.L1I.SizeB = 1 << 10
	m.L1D.SizeB = 1 << 10
	m.L2.SizeB = 4 << 10
	m.L3.SizeB = 32 << 10
	if len(names) == 0 {
		names = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}
	}
	return service.JobSpec{
		Workloads: names,
		Suite:     workloads.Config{Seed: 11, Scale: 1 << 16},
		Cluster: cluster.Config{
			Machine:             m,
			SlaveNodes:          2,
			InstructionsPerCore: 1500,
			Slices:              8,
			Monitor:             perf.DefaultMonitor(),
			Runs:                1,
			Seed:                11,
			ExecutionJitter:     0.05,
		},
		Analysis: core.AnalysisConfig{
			KMin: 2, KMax: 2,
			KMeans: kmeans.Config{Restarts: 2, Seed: 7},
		},
	}
}

// coverage asserts a plan tiles the workload×node grid exactly once.
func coverage(t *testing.T, spec service.JobSpec, shards []Shard) {
	t.Helper()
	suite, err := spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	covered := make([][]int, len(suite))
	for w := range covered {
		covered[w] = make([]int, spec.Cluster.SlaveNodes)
	}
	for _, sh := range shards {
		if len(sh.Workloads) == 0 || sh.Nodes < 1 {
			t.Fatalf("empty shard %+v", sh)
		}
		for wi, name := range sh.Workloads {
			w := sh.WorkloadOffset + wi
			if suite[w].Name != name {
				t.Fatalf("shard %d workload %q misaligned with suite order", sh.Index, name)
			}
			for n := sh.NodeOffset; n < sh.NodeOffset+sh.Nodes; n++ {
				covered[w][n]++
			}
		}
	}
	for w := range covered {
		for n, c := range covered[w] {
			if c != 1 {
				t.Fatalf("grid cell workload=%d node=%d covered %d times", w, n, c)
			}
		}
	}
}

func TestPlanCoversGridExactly(t *testing.T) {
	for _, tc := range []struct {
		workloads []string
		nodes     int
		workers   int
		minShards int
	}{
		{[]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 1, 1},
		{[]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 2, 2},
		{[]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, 2, 3, 3},
		{[]string{"H-Sort", "S-Sort", "H-Grep"}, 4, 3, 3},
		// Fewer workloads than workers: the node axis splits too.
		{[]string{"H-Sort", "S-Sort"}, 4, 5, 5},
		{[]string{"H-Sort"}, 4, 3, 3},
		// More workers than workload×node columns: capped at the grid.
		{[]string{"H-Sort"}, 2, 8, 2},
	} {
		spec := tinySpec(tc.workloads...)
		spec.Cluster.SlaveNodes = tc.nodes
		shards, err := Plan(spec, tc.workers)
		if err != nil {
			t.Fatalf("%v/%d nodes/%d workers: %v", tc.workloads, tc.nodes, tc.workers, err)
		}
		if len(shards) < tc.minShards || len(shards) > tc.workers {
			t.Errorf("%d workloads × %d nodes over %d workers: %d shards, want [%d,%d]",
				len(tc.workloads), tc.nodes, tc.workers, len(shards), tc.minShards, tc.workers)
		}
		coverage(t, spec, shards)
		for i, sh := range shards {
			if sh.Index != i {
				t.Errorf("shard %d carries index %d", i, sh.Index)
			}
		}
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	spec := tinySpec()
	a, err := Plan(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].WorkloadOffset != b[i].WorkloadOffset || a[i].NodeOffset != b[i].NodeOffset ||
			a[i].Nodes != b[i].Nodes || len(a[i].Workloads) != len(b[i].Workloads) {
			t.Fatalf("plan differs at shard %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// customSpec extends tinySpec with one blended custom definition, whose
// H-/S- workloads are appended after the built-in selection.
func customSpec(names ...string) service.JobSpec {
	spec := tinySpec(names...)
	spec.CustomWorkloads = []custom.Definition{{
		Name: "ScanProbe",
		Data: custom.DataSpec{PaperBytes: 4 << 30, Skew: 0.3},
		Mix: &trace.Params{
			LoadFrac: 0.32, StoreFrac: 0.08, BranchFrac: 0.18,
			DepFrac: 0.2, SeqFrac: 0.8,
		},
		ShuffleFrac: 0.1,
	}}
	return spec
}

// Custom workloads plan and tile like built-ins, and the coverage
// invariant holds over the extended suite.
func TestPlanCoversCustomWorkloads(t *testing.T) {
	spec := customSpec("H-Sort", "S-Sort", "H-ScanProbe", "S-ScanProbe")
	for _, workers := range []int{1, 2, 3, 5} {
		shards, err := Plan(spec, workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		coverage(t, spec, shards)
	}
}

// Sub-specs carry only the definitions their workload range references:
// a built-in-only unit of a custom-carrying job must normalize to the
// same worker job ID as the corresponding unit of a plain job, so
// worker-side caches are shared across them.
func TestShardSpecPrunesUnreferencedDefinitions(t *testing.T) {
	names := []string{"H-Sort", "S-Sort", "H-ScanProbe", "S-ScanProbe"}
	spec := customSpec(names...)
	shards, err := Plan(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("planned %d shards, want 2", len(shards))
	}
	// Shard 0 covers the built-ins, shard 1 the custom pair.
	builtinSub := shards[0].Spec(spec)
	if len(builtinSub.CustomWorkloads) != 0 {
		t.Errorf("built-in-only sub-spec retained %d definitions", len(builtinSub.CustomWorkloads))
	}
	customSub := shards[1].Spec(spec)
	if len(customSub.CustomWorkloads) != 1 || customSub.CustomWorkloads[0].Name != "ScanProbe" {
		t.Errorf("custom sub-spec definitions: %+v", customSub.CustomWorkloads)
	}

	// The plain job planned as one unit yields the same workload×node
	// range as the custom job's built-in shard.
	plain := tinySpec(names[:2]...)
	plainShards, err := Plan(plain, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := plainShards[0].Spec(plain).ID()
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := builtinSub.ID()
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID {
		t.Errorf("built-in unit of a custom job got ID %s, plain job's unit %s — worker cache not shared", gotID, wantID)
	}

	// And the custom sub-spec must still resolve and validate.
	if _, err := customSub.Normalized(); err != nil {
		t.Errorf("custom sub-spec does not normalize: %v", err)
	}
}

func TestShardSpecIsCharacterizeOnly(t *testing.T) {
	spec := tinySpec()
	shards, err := Plan(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub := shards[1].Spec(spec)
	if sub.Mode != service.ModeObservations {
		t.Errorf("sub-spec mode %q, want observations", sub.Mode)
	}
	norm, err := sub.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Analysis != (core.AnalysisConfig{}) {
		t.Error("sub-spec retained analysis config after normalization")
	}
	if norm.Cluster.Seed != spec.Cluster.Seed {
		t.Error("sub-spec seed drifted")
	}
}

// allocBytesPerRun is testing.AllocsPerRun counting bytes rather than
// allocations: synthesizing a built-in makes few allocations but large
// ones (its generated dataset), so bytes are what tell a synthesized
// workload from a named one.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// The coordinator normalizes and plans every job by name and synthesizes
// only the workloads it selects: naming all 32 built-ins must cost less
// than synthesizing one, and resolving two must cost less than one
// data-heavy built-in. The whole suite allocates about six times that.
// workloads memoizes derived data traits per suite seed, so every measured
// call runs at a seed no earlier call used: no synthesis can hide behind a
// memo hit, in the yardstick or in the cases.
func TestResolutionSynthesizesOnlySelectedWorkloads(t *testing.T) {
	seed := uint64(1 << 40)
	fresh := func() uint64 { seed++; return seed }
	one := allocBytesPerRun(5, func() {
		cfg := workloads.DefaultConfig()
		cfg.Seed = fresh()
		if _, err := workloads.Builtin(cfg, "H-WordCount"); err != nil {
			t.Fatal(err)
		}
	})
	all, err := tinySpec(workloads.BuiltinNames()...).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	pair := tinySpec("H-Sort", "S-Grep")
	for _, c := range []struct {
		name string
		spec service.JobSpec
		f    func(service.JobSpec) error
	}{
		{"Normalized(32 built-ins)", all, func(s service.JobSpec) error { _, err := s.Normalized(); return err }},
		{"Plan(32 built-ins)", all, func(s service.JobSpec) error { _, err := Plan(s, 8); return err }},
		{"ResolveSuite(H-Sort, S-Grep)", pair, func(s service.JobSpec) error { _, err := s.ResolveSuite(); return err }},
	} {
		got := allocBytesPerRun(5, func() {
			s := c.spec
			s.Suite.Seed = fresh()
			if err := c.f(s); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d B, Builtin(H-WordCount): %d B", c.name, got, one)
		if got >= one {
			t.Errorf("%s allocates %d B, not less than synthesizing H-WordCount (%d B)", c.name, got, one)
		}
	}
}
