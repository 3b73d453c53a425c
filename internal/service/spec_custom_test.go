package service

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/trace"
)

// fastCustomSpec is a CI-scale spec carrying one blended custom
// definition alongside a built-in.
func fastCustomSpec() JobSpec {
	spec := tinySpec()
	spec.Workloads = []string{"H-Sort", "H-TestScan", "S-TestScan"}
	spec.CustomWorkloads = []custom.Definition{testScanDef()}
	return spec
}

func testScanDef() custom.Definition {
	return custom.Definition{
		Name: "TestScan",
		Data: custom.DataSpec{PaperBytes: 4 << 30, Skew: 0.3},
		Mix: &trace.Params{
			LoadFrac: 0.32, StoreFrac: 0.08, BranchFrac: 0.18,
			DepFrac: 0.2, SeqFrac: 0.8,
		},
		ShuffleFrac: 0.1,
	}
}

func TestCustomSpecIDStableAcrossEquivalentDefinitions(t *testing.T) {
	a := fastCustomSpec()

	b := fastCustomSpec()
	b.CustomWorkloads[0].Category = "offline" // shorthand for the default
	b.CustomWorkloads[0].Mix.UopsPerInstr = 1.35
	b.CustomWorkloads[0].Mix.DataFootprintB = 99 << 20 // overwritten junk

	ida, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	idb, err := b.ID()
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Errorf("equivalent custom specs hash differently: %s vs %s", ida, idb)
	}

	c := fastCustomSpec()
	c.CustomWorkloads[0].Data.Skew = 0.5
	idc, err := c.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idc == ida {
		t.Error("changing a custom knob did not change the job ID")
	}
}

func TestCustomSpecNormalizationValidates(t *testing.T) {
	bad := fastCustomSpec()
	bad.CustomWorkloads[0].Data.PaperBytes = 0
	if _, err := bad.Normalized(); err == nil {
		t.Error("invalid custom definition accepted")
	}

	collide := fastCustomSpec()
	collide.CustomWorkloads[0].Name = "Sort"
	if _, err := collide.Normalized(); err == nil {
		t.Error("built-in collision accepted")
	}

	// Custom names resolve in the selection even with Workloads set; an
	// unknown one errors listing the extended registry.
	sel := fastCustomSpec()
	sel.Workloads = []string{"H-TestScan", "H-Bogus"}
	_, err := sel.Normalized()
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "H-TestScan") {
		t.Errorf("valid-name list does not include the custom workload: %v", err)
	}

	// Definitions alone (no Workloads) must still be validated: the
	// selection is empty but the suite carries the custom entries.
	solo := tinySpec()
	solo.Workloads = nil
	solo.CustomWorkloads = []custom.Definition{testScanDef()}
	solo.CustomWorkloads[0].Data.Skew = 2
	if _, err := solo.Normalized(); err == nil {
		t.Error("invalid definition accepted when Workloads is empty")
	}
}

func TestCustomSpecResolveSuiteAppendsAfterBuiltins(t *testing.T) {
	spec := tinySpec()
	spec.Workloads = nil
	spec.CustomWorkloads = []custom.Definition{testScanDef()}
	suite, err := spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 34 {
		t.Fatalf("extended suite has %d workloads, want 34", len(suite))
	}
	if suite[32].Name != "H-TestScan" || suite[33].Name != "S-TestScan" {
		t.Errorf("custom workloads not appended in order: %s, %s", suite[32].Name, suite[33].Name)
	}

	// A selection mixing custom and built-in names keeps the caller's
	// order, each entry equal to its place in the extended suite.
	spec.Workloads = []string{"S-TestScan", "H-Sort", "H-TestScan"}
	picked, err := spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	want := []workloads.Workload{suite[33], suite[0], suite[32]}
	if !reflect.DeepEqual(picked, want) {
		t.Errorf("mixed selection resolved to %v, want [S-TestScan H-Sort H-TestScan]", workloads.Names(picked))
	}
}

// A custom job runs end-to-end through the manager: executes, caches,
// and an identical resubmission is a cache hit with the same ID and
// result hash.
func TestSubmitCustomJobExecutesAndCaches(t *testing.T) {
	m := newTestManager(t, Config{})
	spec := fastCustomSpec()

	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("first custom submission was a cache hit")
	}
	fin := waitTerminal(t, m, st.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("custom job finished %s: %s", fin.State, fin.Error)
	}
	if fin.ResultHash == "" {
		t.Fatal("no result hash")
	}

	again, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.ID != st.ID || again.ResultHash != fin.ResultHash {
		t.Errorf("resubmission not a stable cache hit: %+v vs %+v", again, fin)
	}

	// The same spec written with equivalent (unnormalized) definitions
	// dedupes onto the same job.
	equiv := fastCustomSpec()
	equiv.CustomWorkloads[0].Category = "Offline Analytics"
	equiv.CustomWorkloads[0].Mix.DataFootprintB = 7 << 20
	st2, err := equiv.ID()
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st.ID {
		t.Errorf("equivalent custom spec got a different ID: %s vs %s", st2, st.ID)
	}
}
