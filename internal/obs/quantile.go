package obs

import (
	"math"
	"sort"
)

// HistogramSnapshot is a point-in-time aggregate of one or more
// histograms sharing a bucket layout: the raw material for estimated
// quantiles on /v1/status, /v1/workers and the stats ticker. Counts are
// per-bound and non-cumulative, mirroring Histogram's internal storage;
// Inf holds the observations above the last finite bound.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Inf    uint64
	Count  uint64
	Sum    float64
}

// Snapshot captures the histogram's current buckets. The snapshot is not
// atomic with respect to concurrent Observe calls — individual loads are —
// which is fine for estimation: a quantile over a window that is off by a
// few in-flight observations is still a quantile.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	var below uint64
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		below += s.Counts[i]
	}
	if s.Count > below {
		s.Inf = s.Count - below
	}
	return s
}

// Merge adds o into s (for aggregating a labeled family into one
// estimate). Bucket layouts must match; an empty s adopts o's layout.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Bounds == nil {
		s.Bounds = o.Bounds
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Inf, s.Count, s.Sum = o.Inf, o.Count, o.Sum
		return
	}
	if len(s.Counts) != len(o.Counts) {
		return // incompatible layouts: keep what we have
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Inf += o.Inf
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the fixed
// buckets, Prometheus histogram_quantile style: find the bucket the rank
// lands in and interpolate linearly inside it. Observations in the +Inf
// bucket clamp to the last finite bound (the estimate cannot exceed what
// the buckets resolve). An empty histogram returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			return lower + (upper-lower)*(rank-cum)/float64(c)
		}
		cum = next
	}
	// Rank fell in the implicit +Inf bucket.
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Quantiles estimates several quantiles in one pass-per-quantile — the
// p50/p95/p99 triple every status surface renders.
func (s HistogramSnapshot) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s.Quantile(q)
	}
	return out
}

// ReadScalar reads the current value of a counter or gauge family: the
// sum across all its series (gauge-funcs are invoked). ok is false for
// unknown names and histogram families. This is the sampler's read path,
// so it takes the same locks as WriteText and never allocates per series.
func (r *Registry) ReadScalar(name string) (float64, bool) {
	return r.readScalar(name, nil)
}

// ReadScalarSeries reads one series of a labeled counter or gauge family
// by exact label values.
func (r *Registry) ReadScalarSeries(name string, labelValues []string) (float64, bool) {
	return r.readScalar(name, labelValues)
}

func (r *Registry) readScalar(name string, labelValues []string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.typ == "histogram" {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	all := f.current()
	if labelValues != nil {
		s, ok := all[seriesKey(labelValues)]
		if !ok {
			return 0, false
		}
		return scalarValue(s), true
	}
	var sum float64
	for _, s := range all {
		sum += scalarValue(s)
	}
	return sum, true
}

func scalarValue(s *series) float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.c != nil:
		return float64(s.c.Value())
	case s.g != nil:
		return s.g.Value()
	}
	return 0
}

// ReadHistogram aggregates a histogram family — every series merged —
// into one snapshot. ok is false for unknown or non-histogram names.
func (r *Registry) ReadHistogram(name string) (HistogramSnapshot, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.typ != "histogram" {
		return HistogramSnapshot{}, false
	}
	var agg HistogramSnapshot
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		agg.Merge(s.h.Snapshot())
	}
	if agg.Bounds == nil {
		agg.Bounds = f.bounds
	}
	return agg, true
}

// Each visits every series of the family in deterministic (sorted label
// value) order with its current count — how status surfaces turn a
// labeled counter family into a table without re-parsing /metrics text.
func (v *CounterVec) Each(fn func(labelValues []string, value uint64)) {
	for _, s := range v.f.sortedSeries() {
		fn(s.values, s.c.Value())
	}
}

// Each visits every series of the family in deterministic order with a
// point-in-time snapshot.
func (v *HistogramVec) Each(fn func(labelValues []string, snap HistogramSnapshot)) {
	for _, s := range v.f.sortedSeries() {
		fn(s.values, s.h.Snapshot())
	}
}

// sortedSeries returns the family's series sorted by label values — a
// copy, so callers iterate without holding the family lock.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.Unlock()
	return out
}
