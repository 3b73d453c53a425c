package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict is what -compare says about one end-to-end metric on one
// workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // the spread is wider than the bound
)

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies bound to two sets of runs of metric d. Where either set's
// run-to-run spread is wider than the bound the pairing is unresolved, not
// unchanged — unless every run of b reads better than every run of a.
func judge(d metricDef, bound float64, a, b []float64) verdict {
	qa, qb := quartilesOf(a), quartilesOf(b)
	if max(qa.spread(), qb.spread()) > bound {
		if allBetter(d, a, b) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening(d, qa.med, qb.med) > bound {
		return verdictRegressed
	}
	return verdictOK
}

func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints b against base a: every end-to-end metric × workload
// with quartiles, the ratio beside its base and a verdict, and the pooled
// latency tail; then every per-layer row, flagging exact rows that differ. It reports whether
// anything regressed or an exact row moved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s\n  ", pathA)
	printFingerprint(w, a.Fingerprint)
	fmt.Fprintf(w, "new  %s\n  ", pathB)
	printFingerprint(w, b.Fingerprint)
	if a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: run length differs (%gs vs %gs): the sets do not compare\n", a.Seconds, b.Seconds)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tbound\tbase median [q1, q3]\tnew median [q1, q3]\tnew/base\tworse by\tverdict")
	for _, wl := range workloadList {
		for _, d := range endToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartilesOf(va), quartilesOf(vb)
			v := judge(d, wl.bound(d), va, vb)
			bad = bad || v == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s %s\t%.2f\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.3f\t%+.1f%%\t%s\n",
				wl.Name, d.Name, d.Unit, wl.bound(d), qa.med, qa.q1, qa.q3, qb.med, qb.q1, qb.q3,
				qb.med/qa.med, 100*worsening(d, qa.med, qb.med), v)
		}
		// The tail: one pooled value a set, so no spread to call it
		// unresolved by; both sets are read at the percentile the smaller
		// of them supports.
		la, lb := a.latencies(wl.Name), b.latencies(wl.Name)
		if p := highestPercentile(min(len(la), len(lb))); p > 50 {
			ta, tb := quantile(la, p/100), quantile(lb, p/100)
			v := verdictOK
			if worsening(opTail, ta, tb) > wl.bound(opTail) {
				v, bad = verdictRegressed, true
			}
			fmt.Fprintf(tw, "%s\t%s %s\t%.2f\t%.4g (p%g of %d ops)\t%.4g (p%g of %d ops)\t%.3f\t%+.1f%%\t%s\n",
				wl.Name, opTail.Name, opTail.Unit, wl.bound(opTail), ta, p, len(la), tb, p, len(lb), tb/ta, 100*worsening(opTail, ta, tb), v)
		}
		ra, _, fa := a.ops(wl.Name)
		rb, _, fb := b.ops(wl.Name)
		if ra != rb {
			fmt.Fprintf(tw, "%s\twarning: %d runs against %d: the quartiles do not compare\n", wl.Name, ra, rb)
		}
		if fa+fb > 0 {
			v := verdictOK
			if fb > fa {
				v, bad = verdictRegressed, true
			}
			fmt.Fprintf(tw, "%s\tfailed_ops\t\t%d\t%d\t\t\t%s\n", wl.Name, fa, fb, v)
		}
	}
	tw.Flush()

	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nper-layer metric\tunit\tbase\tnew\tnew/base\tnote")
	for _, d := range perLayer {
		va, vb := a.layer(d.Name), b.layer(d.Name)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		ma, mb := median(va), median(vb)
		note := ""
		if d.Exact {
			note = "exact: identical"
			if !sameValues(va) || !sameValues(vb) || ma != mb {
				note = "exact: DIFFERS"
				bad = true
			}
		}
		ratio := "-"
		if ma != 0 {
			ratio = fmt.Sprintf("%.3f", mb/ma)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%s\n", d.Name, d.Unit, ma, mb, ratio, note)
	}
	tw.Flush()
	return bad, nil
}

func sameValues(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
