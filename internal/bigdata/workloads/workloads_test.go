package workloads

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bigdata/stack"
)

func suite(t *testing.T) []Workload {
	t.Helper()
	s, err := Suite(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteHas32Workloads(t *testing.T) {
	s := suite(t)
	if len(s) != 32 {
		t.Fatalf("suite has %d workloads, want 32", len(s))
	}
	names := map[string]bool{}
	for _, w := range s {
		if names[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		names[w.Name] = true
	}
	// Spot-check the paper's naming scheme.
	for _, want := range []string{"H-Sort", "S-Sort", "H-Kmeans", "S-PageRank", "H-AggQuery", "S-SelectQuery"} {
		if !names[want] {
			t.Errorf("missing workload %q", want)
		}
	}
}

func TestSixteenPerStack(t *testing.T) {
	s := suite(t)
	h, sp := 0, 0
	for _, w := range s {
		switch {
		case strings.HasPrefix(w.Name, "H-"):
			h++
			if w.Stack.Engine != stack.EngineHadoop {
				t.Errorf("%s runs on engine %s", w.Name, w.Stack.Engine)
			}
		case strings.HasPrefix(w.Name, "S-"):
			sp++
			if w.Stack.Engine != stack.EngineSpark {
				t.Errorf("%s runs on engine %s", w.Name, w.Stack.Engine)
			}
		default:
			t.Errorf("workload %q has no stack prefix", w.Name)
		}
	}
	if h != 16 || sp != 16 {
		t.Errorf("stack split = %d Hadoop / %d Spark, want 16/16", h, sp)
	}
}

func TestInteractiveUsesHiveShark(t *testing.T) {
	s := suite(t)
	for _, w := range s {
		switch w.Category {
		case CategoryInteractive:
			if w.Stack.Name != "Hive" && w.Stack.Name != "Shark" {
				t.Errorf("%s (interactive) on stack %s, want Hive/Shark", w.Name, w.Stack.Name)
			}
		case CategoryOffline:
			if w.Stack.Name != "Hadoop" && w.Stack.Name != "Spark" {
				t.Errorf("%s (offline) on stack %s, want Hadoop/Spark", w.Name, w.Stack.Name)
			}
		default:
			t.Errorf("%s has unknown category %q", w.Name, w.Category)
		}
	}
}

func TestAllProfilesValid(t *testing.T) {
	for _, w := range suite(t) {
		if err := w.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestIdenticalDataSetsAcrossStacks(t *testing.T) {
	// §III-A: both implementations consume the same data, so the derived
	// skew must match; footprints differ only by the stack's DataScale.
	s := suite(t)
	for _, alg := range []string{"Sort", "WordCount", "PageRank", "Aggregation"} {
		h, err := ByName(s, "H-"+alg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := ByName(s, "S-"+alg)
		if err != nil {
			t.Fatal(err)
		}
		if h.ProblemSize != sp.ProblemSize || h.DataType != sp.DataType {
			t.Errorf("%s: data metadata differs across stacks", alg)
		}
	}
}

func TestSparkLargerDataFootprint(t *testing.T) {
	// Spark's in-memory intermediate data (DataScale 2.6) should make its
	// data footprints larger than Hadoop's for the same algorithm.
	s := suite(t)
	larger := 0
	for _, alg := range []string{"Sort", "WordCount", "Grep", "Bayes", "PageRank",
		"Projection", "Filter", "OrderBy", "Union", "Aggregation"} {
		h, _ := ByName(s, "H-"+alg)
		sp, _ := ByName(s, "S-"+alg)
		if sp.Profile.Compute.DataFootprintB > h.Profile.Compute.DataFootprintB {
			larger++
		}
	}
	if larger < 8 {
		t.Errorf("only %d/10 Spark workloads have larger data footprints", larger)
	}
}

func TestHadoopLargerCodeFootprint(t *testing.T) {
	// Observation 8: Hadoop-based workloads have larger instruction
	// footprints (except Spark PC4 outliers with deliberate code churn).
	s := suite(t)
	larger := 0
	checked := 0
	for _, alg := range []string{"Sort", "Bayes", "PageRank", "Projection",
		"Filter", "OrderBy", "Union", "Aggregation", "JoinQuery", "SelectQuery"} {
		h, _ := ByName(s, "H-"+alg)
		sp, _ := ByName(s, "S-"+alg)
		checked++
		if h.Profile.Compute.CodeFootprintB > sp.Profile.Compute.CodeFootprintB {
			larger++
		}
	}
	if larger != checked {
		t.Errorf("only %d/%d Hadoop workloads have larger code footprints", larger, checked)
	}
}

func TestHadoopMoreKernelMode(t *testing.T) {
	s := suite(t)
	for _, alg := range []string{"Sort", "WordCount", "Aggregation"} {
		h, _ := ByName(s, "H-"+alg)
		sp, _ := ByName(s, "S-"+alg)
		if h.Profile.Compute.KernelFrac <= sp.Profile.Compute.KernelFrac {
			t.Errorf("%s: Hadoop kernel fraction %v ≤ Spark %v", alg,
				h.Profile.Compute.KernelFrac, sp.Profile.Compute.KernelFrac)
		}
	}
}

func TestSparkMoreSharing(t *testing.T) {
	s := suite(t)
	for _, alg := range []string{"Sort", "PageRank", "JoinQuery"} {
		h, _ := ByName(s, "H-"+alg)
		sp, _ := ByName(s, "S-"+alg)
		if sp.Profile.Compute.SharedFrac <= h.Profile.Compute.SharedFrac {
			t.Errorf("%s: Spark shared fraction %v ≤ Hadoop %v", alg,
				sp.Profile.Compute.SharedFrac, h.Profile.Compute.SharedFrac)
		}
	}
}

func TestStackDominanceCompressesAlgorithmDiversity(t *testing.T) {
	// Hadoop's higher Dominance must make Hadoop workloads more alike
	// than their Spark counterparts (Observation 5). Compare the spread
	// of a representative parameter across algorithms per stack.
	s := suite(t)
	spread := func(prefix string) float64 {
		min, max := 1.0, 0.0
		for _, w := range s {
			if !strings.HasPrefix(w.Name, prefix) {
				continue
			}
			v := w.Profile.Compute.SeqFrac
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max - min
	}
	if spread("H-") >= spread("S-") {
		t.Errorf("Hadoop SeqFrac spread %v ≥ Spark %v; dominance not compressing", spread("H-"), spread("S-"))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName(suite(t), "X-Nothing"); err == nil {
		t.Error("unknown name accepted")
	}
}

// Builtin synthesizes one entry alone; it must equal the same entry of the
// whole suite at every config, or selecting workloads would change bits.
func TestBuiltinMatchesSuiteEntry(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {Seed: 11, Scale: 1 << 16}, {Seed: 1, Scale: 1}} {
		all, err := Suite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range BuiltinNames() {
			want, err := ByName(all, name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Builtin(cfg, name)
			if err != nil {
				t.Fatalf("%+v %s: %v", cfg, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: Builtin(%s) differs from its Suite entry", cfg, name)
			}
		}
	}
}

func TestBuiltinRejectsUnknownAndBadScale(t *testing.T) {
	if _, err := Builtin(DefaultConfig(), "X-Nothing"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := Builtin(Config{Seed: 1}, "H-Sort"); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestCheckSelectionTrimsAndKeepsOrder(t *testing.T) {
	got, err := CheckSelection(BuiltinNames(), []string{" S-Grep", "H-Sort "})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"S-Grep", "H-Sort"}) {
		t.Errorf("selection %q, want [S-Grep H-Sort]", got)
	}
}

func TestSuiteRejectsBadScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0
	if _, err := Suite(cfg); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := suite(t)
	b := suite(t)
	for i := range a {
		if a[i].Name != b[i].Name ||
			a[i].Profile.Compute != b[i].Profile.Compute ||
			a[i].Profile.Shuffle != b[i].Profile.Shuffle {
			t.Fatalf("suite not deterministic at %s", a[i].Name)
		}
	}
}

func TestNames(t *testing.T) {
	s := suite(t)
	names := Names(s)
	if len(names) != 32 || names[0] != s[0].Name {
		t.Errorf("Names wrong: %v", names[:2])
	}
}

func TestFootprintsMatchCacheRegime(t *testing.T) {
	// The scaled footprints must keep the memory hierarchy in the
	// paper's regime: Spark working sets well beyond the 12 MB L3
	// (Observation 6: ≈2× the L3 misses), Hadoop's streaming sets near
	// but not far under L3 capacity.
	s := suite(t)
	for _, name := range []string{"S-Sort", "S-WordCount", "S-Bayes"} {
		w, _ := ByName(s, name)
		if w.Profile.Compute.DataFootprintB < 12<<20 {
			t.Errorf("%s data footprint %d < L3 size", name, w.Profile.Compute.DataFootprintB)
		}
	}
	for _, name := range []string{"H-Sort", "H-WordCount"} {
		w, _ := ByName(s, name)
		f := w.Profile.Compute.DataFootprintB
		if f < 6<<20 || f > 16<<20 {
			t.Errorf("%s data footprint %d outside the near-L3 regime", name, f)
		}
	}
}
