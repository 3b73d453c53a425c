package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/benchio"
	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/core"
)

// TestRunGolden pins the canonical encoding of a CI-scale core.Run: all 32
// built-ins on one node, characterized and analyzed. Any change to the
// simulator, the measurement layer or the analysis that moves one byte of
// the answer fails here.
func TestRunGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned encoding is recorded on amd64")
	}
	const want = "8a12777464b23d5be702a2b433ff1f1b85b3529adf477ca6a24e6198856b717f"
	ccfg := cluster.DefaultConfig()
	ccfg.SlaveNodes = 1
	ccfg.InstructionsPerCore = 2000
	ccfg.Slices = 10
	acfg := core.DefaultAnalysis()
	acfg.KMax = 6
	an, err := core.Run(workloads.DefaultConfig(), ccfg, acfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("core.Run encoding hash %s, pinned %s", got, want)
	}
}
