package perf

import (
	"fmt"

	"repro/internal/sim/event"
)

// MonitorConfig controls how event counts are collected from a run, in
// the style of Linux perf on the paper's Xeon (§IV-C).
type MonitorConfig struct {
	// Counters is the number of programmable PMCs available per
	// measurement group. The Westmere core has 4.
	Counters int
	// Multiplex enables perf-style time multiplexing: event groups are
	// rotated across time slices and counts are scaled by the fraction
	// of time each group was scheduled. Without it, counts are exact
	// (as if the workload were re-run once per group, which is what the
	// paper does: "we run each workload multiple times to obtain more
	// accurate values").
	Multiplex bool
	// RampUpFraction of the initial time slices is discarded before
	// counting ("We perform a ramp-up period for each application").
	RampUpFraction float64
}

// DefaultMonitor matches the paper's setup: 4 counters, multiplexing on,
// 20 % ramp-up skip.
func DefaultMonitor() MonitorConfig {
	return MonitorConfig{Counters: 4, Multiplex: true, RampUpFraction: 0.2}
}

// Validate checks the configuration.
func (c MonitorConfig) Validate() error {
	if c.Counters < 1 {
		return fmt.Errorf("perf: need ≥1 counter, got %d", c.Counters)
	}
	if c.RampUpFraction < 0 || c.RampUpFraction >= 1 {
		return fmt.Errorf("perf: ramp-up fraction %v out of [0,1)", c.RampUpFraction)
	}
	return nil
}

// Measure estimates total event counts from cumulative snapshots (as
// produced by machine.Run: snapshots[0] is the all-zero start, the last
// is the final total). With multiplexing, each event group only observes
// its scheduled slices and the estimate is scaled by slices/scheduled —
// reproducing the measurement error that real multiplexed PMCs incur.
func Measure(snapshots []event.Counts, cfg MonitorConfig) (event.Counts, error) {
	if err := cfg.Validate(); err != nil {
		return event.Counts{}, err
	}
	if len(snapshots) < 2 {
		return event.Counts{}, fmt.Errorf("perf: need ≥2 snapshots, got %d", len(snapshots))
	}

	// Slice deltas, after ramp-up skip.
	nslices := len(snapshots) - 1
	skip := int(float64(nslices) * cfg.RampUpFraction)
	if skip >= nslices {
		skip = nslices - 1
	}
	deltas := make([]event.Counts, 0, nslices-skip)
	for i := skip + 1; i < len(snapshots); i++ {
		d := snapshots[i].Sub(&snapshots[i-1])
		deltas = append(deltas, d)
	}

	if !cfg.Multiplex {
		var total event.Counts
		for i := range deltas {
			total.Add(&deltas[i])
		}
		return total, nil
	}

	// Group events into counter-sized groups, rotate round-robin.
	groups := groupEvents(cfg.Counters)
	ngroups := len(groups)
	var est event.Counts
	scheduled := make([]int, ngroups)
	sums := make([]event.Counts, ngroups)
	for si := range deltas {
		g := si % ngroups
		scheduled[g]++
		sums[g].Add(&deltas[si])
	}
	for g, grp := range groups {
		if scheduled[g] == 0 {
			// Group never ran (more groups than slices): estimate zero.
			continue
		}
		scale := float64(len(deltas)) / float64(scheduled[g])
		for _, id := range grp {
			// Round to nearest: truncation makes constant-rate streams
			// (which should be estimated exactly) come up one short when
			// the scale factor rounds down, e.g. 19·13·(26/13) → 493.999….
			est[id] = uint64(float64(float64(sums[g][id])*scale) + 0.5)
		}
	}
	return est, nil
}

// groupEvents partitions the full event catalog into groups of at most
// `counters` events, in catalog order.
func groupEvents(counters int) [][]event.ID {
	all := event.All()
	var groups [][]event.ID
	for len(all) > 0 {
		n := counters
		if n > len(all) {
			n = len(all)
		}
		groups = append(groups, all[:n])
		all = all[n:]
	}
	return groups
}

// AverageRuns averages the 45-metric vectors derived from several runs'
// measured counts — the paper's multi-run procedure. It returns the
// per-metric means.
func AverageRuns(runs []event.Counts) []float64 {
	if len(runs) == 0 {
		panic("perf: AverageRuns with no runs")
	}
	acc := make([]float64, NumMetrics)
	var buf []float64
	for i := range runs {
		buf = MetricVectorInto(buf, &runs[i])
		for j, x := range buf {
			acc[j] += x
		}
	}
	for j := range acc {
		acc[j] /= float64(len(runs))
	}
	return acc
}

// AverageVectors averages equal-length metric vectors (used to combine
// the four slave nodes: "We collect the data for all four slave nodes and
// take the mean").
func AverageVectors(vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		panic("perf: AverageVectors with no vectors")
	}
	n := len(vecs[0])
	out := make([]float64, n)
	for _, v := range vecs {
		if len(v) != n {
			panic(fmt.Sprintf("perf: vector length mismatch %d vs %d", len(v), n))
		}
		for j, x := range v {
			out[j] += x
		}
	}
	for j := range out {
		out[j] /= float64(len(vecs))
	}
	return out
}
