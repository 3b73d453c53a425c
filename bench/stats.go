package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of sorted by the rule
// Python's statistics.quantiles uses by default ("exclusive": position
// p·(n+1), linear interpolation, clamped to the sample range), so the
// spreads -compare prints are the ones the acceptance check computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// tailPermille are the candidates of the reporting rule below, in
// thousandths so that the count beyond each is exact.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// highestPercentile is the reporting rule for a latency tail: the highest
// percentile that still has at least ten samples beyond it. It returns 0
// when even the median has fewer (n < 20) — then only the median means
// anything and the tail column is labelled with its sample count.
func highestPercentile(n int) float64 {
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
