package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/bigdata/workloads"
	"repro/internal/sim/machine"
	"repro/internal/trace"
)

// snapshotHash is the SHA-256 of a run's snapshot series: every count of
// every snapshot as little-endian uint64, then the instruction total.
func snapshotHash(res *machine.RunResult) string {
	h := sha256.New()
	var b [8]byte
	for i := range res.Snapshots {
		for _, v := range res.Snapshots[i] {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], res.Instructions)
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// tinyL3 shrinks the private caches and the L3 so that a short run evicts
// L3 lines that private caches still hold: the back-invalidation path.
func tinyL3() machine.Config {
	m := machine.Westmere()
	m.L2.SizeB = 16 << 10
	m.L3.SizeB = 64 << 10
	return m
}

// oddGeometry has non-power-of-two set counts (modulo indexing) in the L2
// and the L3, and 48 L3 ways.
func oddGeometry() machine.Config {
	m := machine.Westmere()
	m.L2.SizeB = 8 * 64 * 384   // 384 sets
	m.L3.SizeB = 48 * 64 * 1000 // 1000 sets
	m.L3.Ways = 48
	return m
}

// TestSimulatedCountsGolden pins the simulator's output bit for bit: the
// literal hashes below were recorded from the struct-of-lines caches and
// map directory, and any layout or speed change to the simulator must
// reproduce them exactly. A deliberate model change (one that is meant to
// move results) updates them together with cellKeyVersion.
func TestSimulatedCountsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The core accounting is floating point; other architectures
		// may fuse multiply-adds and round differently.
		t.Skip("simulated-count goldens are recorded on amd64")
	}
	cases := []struct {
		name     string
		workload string
		machine  machine.Config
		seed     uint64
		want     string
	}{
		{"westmere/H-Sort", "H-Sort", machine.Westmere(), 1,
			"4773a3be39bb822498efd0661262002476792b9aef66ec1d8a6533f835a95dc6"},
		{"westmere/S-Sort", "S-Sort", machine.Westmere(), 2,
			"626ceea981c1b62ad3724eda766e11fe20be5c09a2f906c303e0e3bb91d15a8c"},
		{"westmere/S-JoinQuery", "S-JoinQuery", machine.Westmere(), 3,
			"d71030f740cb120bedc08462a4fc1cb21d48e5f6f87df1f161f8aaf737f68a3e"},
		{"tinyL3/H-Grep", "H-Grep", tinyL3(), 4,
			"5f64e7e4b4dc8272d05645012cddc69cc79009659ac17ecd1acc97196bd01f42"},
		{"odd/H-WordCount", "H-WordCount", oddGeometry(), 5,
			"dcce43f07ce58e563b4ca409c50f44fc582db3bd866d584ca36bc22d540471bb"},
	}
	const instrPerCore, slices = 3000, 12
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads.Builtin(workloads.DefaultConfig(), tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			sources, err := trace.Sources(w.Profile, tc.seed, tc.machine.Cores())
			if err != nil {
				t.Fatal(err)
			}
			var res machine.RunResult
			if err := m.RunInto(&res, sources, instrPerCore, slices); err != nil {
				t.Fatal(err)
			}
			if got := snapshotHash(&res); got != tc.want {
				t.Errorf("snapshot hash %s, pinned %s", got, tc.want)
			}
		})
	}
}
