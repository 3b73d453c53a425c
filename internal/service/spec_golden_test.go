package service

import (
	"testing"

	"repro/internal/bigdata/custom"
)

// Golden job IDs: the hex-encoded truncated SHA-256 of the normalized
// canonical spec JSON. These pins turn a silent result-cache
// invalidation — any change to spec normalization, field order, tags,
// defaults, or the canonical JSON of a nested config — into a test
// failure. If a change here is *deliberate* (the spec semantics really
// changed), update the constants and say so in the commit: every daemon's
// existing cache entries and job records become unreachable under the
// new IDs.
const (
	// goldenDefaultID is DefaultSpec(): all 32 built-ins, paper-shaped
	// cluster and analysis settings.
	goldenDefaultID = "1ff464360dd7adf763720d746e67a057"
	// goldenObservationsID is the representative sharded-worker sub-spec
	// shape: characterize-only, CI-scale workload subset.
	goldenObservationsID = "e30c7825fed5adafea6c2e99accbfef7"
)

func goldenObservationsSpec() JobSpec {
	o := DefaultSpec()
	o.Mode = ModeObservations
	o.Workloads = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}
	o.Cluster.SlaveNodes = 2
	o.Cluster.InstructionsPerCore = 6000
	return o
}

func TestJobIDGoldenDefaultSpec(t *testing.T) {
	id, err := DefaultSpec().ID()
	if err != nil {
		t.Fatal(err)
	}
	if id != goldenDefaultID {
		t.Errorf("DefaultSpec job ID changed: %s, pinned %s\n"+
			"This silently invalidates every cached result and job record.\n"+
			"If the spec change is deliberate, update the golden constant.", id, goldenDefaultID)
	}
}

func TestJobIDGoldenObservationsSpec(t *testing.T) {
	id, err := goldenObservationsSpec().ID()
	if err != nil {
		t.Fatal(err)
	}
	if id != goldenObservationsID {
		t.Errorf("observations-mode job ID changed: %s, pinned %s\n"+
			"If the spec change is deliberate, update the golden constant.", id, goldenObservationsID)
	}
}

// The custom_workloads field must be invisible to job identity when
// empty: a nil and a zero-length slice both normalize to the omitted
// form, keeping pre-custom job IDs (and their cached results) valid.
func TestJobIDEmptyCustomWorkloadsIsOmitted(t *testing.T) {
	s := DefaultSpec()
	s.CustomWorkloads = []custom.Definition{}
	id, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id != goldenDefaultID {
		t.Errorf("empty CustomWorkloads slice changed the job ID: %s != %s", id, goldenDefaultID)
	}
}
