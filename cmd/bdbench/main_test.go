package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validOptions mirrors the flag defaults.
func validOptions() options {
	return options{
		nodes: 4, instr: 60000, scale: 4096, seed: 20140901,
		runs: 1, jitter: 0.06,
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validOptions().validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestValidateRejectsBadFlagCombinations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*options)
		want   string // flag name the error must mention
	}{
		"runs zero":          {func(o *options) { o.runs = 0 }, "-runs"},
		"runs negative":      {func(o *options) { o.runs = -3 }, "-runs"},
		"nodes zero":         {func(o *options) { o.nodes = 0 }, "-nodes"},
		"instructions small": {func(o *options) { o.instr = 999 }, "-instructions"},
		"scale zero":         {func(o *options) { o.scale = 0 }, "-scale"},
		"scale negative":     {func(o *options) { o.scale = -4096 }, "-scale"},
		"slices negative":    {func(o *options) { o.slices = -1 }, "-slices"},
		"jitter negative":    {func(o *options) { o.jitter = -0.1 }, "-jitter"},
		"jitter huge":        {func(o *options) { o.jitter = 0.75 }, "-jitter"},
		"parallelism neg":    {func(o *options) { o.par = -2 }, "-parallelism"},
	}
	for name, tc := range cases {
		o := validOptions()
		tc.mutate(&o)
		err := o.validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.want)
		}
	}
}

func TestResolveSuiteSelectsInOrder(t *testing.T) {
	o := validOptions()
	o.workloads = "S-Sort, H-Grep"
	suite, err := o.resolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 || suite[0].Name != "S-Sort" || suite[1].Name != "H-Grep" {
		names := make([]string, len(suite))
		for i, w := range suite {
			names[i] = w.Name
		}
		t.Fatalf("selected %v, want [S-Sort H-Grep]", names)
	}

	full, err := validOptions().resolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 32 {
		t.Fatalf("full suite has %d workloads, want 32", len(full))
	}
}

func TestResolveSuiteUnknownNameListsValidNames(t *testing.T) {
	o := validOptions()
	o.workloads = "H-Sort,H-Bogus"
	_, err := o.resolveSuite()
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"H-Bogus"`) {
		t.Errorf("error does not name the unknown workload: %v", err)
	}
	// The remedy: the full valid-name list.
	for _, known := range []string{"H-Sort", "S-Sort", "H-PageRank", "S-Aggregation"} {
		if !strings.Contains(msg, known) {
			t.Errorf("error does not list valid name %s: %v", known, err)
		}
	}
}

func TestResolveSuiteRejectsEmptyAndDuplicateNames(t *testing.T) {
	o := validOptions()
	o.workloads = "H-Sort,,S-Sort"
	if _, err := o.resolveSuite(); err == nil {
		t.Error("empty workload name accepted")
	}
	o.workloads = "H-Sort,H-Sort"
	if _, err := o.resolveSuite(); err == nil {
		t.Error("duplicate workload name accepted")
	}
}

// writeDefs writes a one-definition workload file and returns its path.
func writeDefs(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "defs.json")
	body := `[{"name":"` + name + `","data":{"paper_bytes":1073741824,"skew":0.3},
		"mix":{"LoadFrac":0.3,"StoreFrac":0.1,"SeqFrac":0.6},"shuffle_frac":0.1}]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResolveSuitePresetByName(t *testing.T) {
	o := validOptions()
	o.workloads = "H-MemThrash,S-StreamIngest"
	suite, err := o.resolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 || suite[0].Name != "H-MemThrash" || suite[1].Name != "S-StreamIngest" {
		t.Fatalf("preset selection resolved to %+v", suite)
	}
}

func TestResolveSuiteWorkloadFile(t *testing.T) {
	o := validOptions()
	o.workloadFile = writeDefs(t, "Probe")

	// No selection: built-ins + the file's H-/S- pair.
	suite, err := o.resolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 34 {
		t.Fatalf("default run with a workload file has %d workloads, want 34", len(suite))
	}
	if suite[32].Name != "H-Probe" || suite[33].Name != "S-Probe" {
		t.Errorf("file workloads not appended: %s, %s", suite[32].Name, suite[33].Name)
	}

	// Named selection mixing built-in, preset and file workloads.
	o.workloads = "S-Probe,H-Sort,H-Stencil"
	suite, err = o.resolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 3 || suite[0].Name != "S-Probe" || suite[2].Name != "H-Stencil" {
		t.Fatalf("mixed selection resolved to %+v", suite)
	}
}

func TestRegistryRejectsFilePresetCollision(t *testing.T) {
	o := validOptions()
	o.workloadFile = writeDefs(t, "StreamIngest")
	if _, err := o.resolveSuite(); err == nil {
		t.Error("file definition shadowing a preset accepted")
	}
}

func TestWorkloadTableListsRegistry(t *testing.T) {
	o := validOptions()
	o.workloadFile = writeDefs(t, "Probe")
	defs, err := o.fileDefs()
	if err != nil {
		t.Fatal(err)
	}
	reg, source, err := o.registry(defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 32+12+2 {
		t.Fatalf("registry has %d workloads, want 46", len(reg))
	}
	var sb strings.Builder
	writeWorkloadTable(&sb, reg, source)
	out := sb.String()
	for _, want := range []string{"NAME", "CATEGORY", "STACK", "SOURCE",
		"H-Sort", "built-in", "H-MemThrash", "preset", "H-Probe", "file"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestClusterConfigMapsFlags(t *testing.T) {
	o := validOptions()
	o.nodes = 2
	o.instr = 12000
	o.runs = 3
	o.slices = 30
	o.noMultiplex = true
	o.jitter = 0.1
	o.par = 5
	ccfg := o.clusterConfig()
	if ccfg.SlaveNodes != 2 || ccfg.InstructionsPerCore != 12000 || ccfg.Runs != 3 ||
		ccfg.Slices != 30 || ccfg.Monitor.Multiplex || ccfg.ExecutionJitter != 0.1 ||
		ccfg.Parallelism != 5 {
		t.Errorf("flag mapping wrong: %+v", ccfg)
	}
	if err := ccfg.Validate(); err != nil {
		t.Errorf("mapped config invalid: %v", err)
	}

	// slices=0 keeps the package default.
	o.slices = 0
	if got := o.clusterConfig().Slices; got != 120 {
		t.Errorf("default slices = %d, want 120", got)
	}
}
