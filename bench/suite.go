package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// ledgerFile is one full set of runs: what `bench` writes under bench/out/
// and what -compare reads.
type ledgerFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Seconds     float64      `json:"seconds"`
	Runs        []*runResult `json:"runs"`
}

// seedStride separates the seeds of a set's runs by more than the number
// of jobs any run submits, so no two runs share a job spec.
const seedStride = 1000

// setRuns is the untraced runs a set makes of each workload: the ten the
// spread rule (quartiles over ten runs) is defined on.
const setRuns = 10

// runSet runs every workload untraced on seeds seed, seed+1000, …, then
// the traced pass once with the window on every part. The runs go seed by
// seed, not workload by workload: the box's speed drifts over minutes, and
// this way each workload's ten runs span the whole set, so their spread
// includes that drift and two sets' medians average over it. It writes
// the ledger file, prints every metric by name, and fails if any op failed.
func runSet(e *env) error {
	lf := &ledgerFile{Fingerprint: takeFingerprint(), Seconds: e.seconds}
	printFingerprint(os.Stdout, lf.Fingerprint)
	failed := 0
	one := func(re *env, w workload, traced bool) error {
		start := time.Now()
		res, err := runOne(re, w, traced)
		if err != nil {
			return err
		}
		lf.Runs = append(lf.Runs, res)
		failed += res.Failed
		for _, p := range res.Problems {
			e.logf("%s seed %d: failed op: %s", w.Name, re.seed, p)
		}
		e.logf("%s trace=%v seed %d: %d ops, %d failed, %.1fs", w.Name, traced, re.seed, res.Attempted, res.Failed, time.Since(start).Seconds())
		return nil
	}
	for k := 0; k < setRuns; k++ {
		re := *e
		re.seed = e.seed + uint64(k)*seedStride
		for _, w := range workloadList {
			if err := one(&re, w, false); err != nil {
				return err
			}
		}
	}
	if err := one(e, workload{}, true); err != nil {
		return err
	}
	printSet(os.Stdout, lf)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "set-"+time.Now().UTC().Format("20060102-150405")+".json")
	data, err := json.MarshalIndent(lf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "\nledger written to %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d failed ops", failed)
	}
	return nil
}

func readLedger(path string) (*ledgerFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lf := &ledgerFile{}
	if err := json.Unmarshal(data, lf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lf, nil
}

// values gathers an end-to-end metric's value from every untraced run of a
// workload.
func (lf *ledgerFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range lf.Runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// layer gathers a per-layer metric's value from the traced runs: one in a
// set this harness wrote.
func (lf *ledgerFile) layer(metric string) []float64 {
	var out []float64
	for _, r := range lf.Runs {
		if r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// latencies pools the op latencies of a workload's untraced runs, sorted.
func (lf *ledgerFile) latencies(workload string) []float64 {
	var out []float64
	for _, r := range lf.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r.LatencyMS...)
		}
	}
	sort.Float64s(out)
	return out
}

// ops sums attempted and failed ops over a workload's untraced runs.
func (lf *ledgerFile) ops(workload string) (runs, attempted, failed int) {
	for _, r := range lf.Runs {
		if r.Workload == workload && !r.Trace {
			runs++
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return
}

// quartiles is a metric's median and quartiles over the runs of a set.
type quartiles struct{ q1, med, q3 float64 }

func quartilesOf(v []float64) quartiles {
	s := sortedCopy(v)
	return quartiles{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to clear.
func (q quartiles) spread() float64 {
	if q.med == 0 {
		return 0
	}
	return (q.q3 - q.q1) / q.med
}

func printFingerprint(w io.Writer, f fingerprint) {
	fmt.Fprintf(w, "machine: %s/%s, %d cpu, %s, %s, commit %s, calib_score %.1f iter/us\n",
		f.GOOS, f.GOARCH, f.NumCPU, f.CPUModel, f.GoVersion, f.GitCommit, f.CalibScore)
	fmt.Fprintln(w, "seconds from two machines compare only after dividing by their calib_score ratio; modelled caches start empty; the model is unvalidated against hardware")
}

// printSet prints every metric by name with unit, direction and bound.
func printSet(w io.Writer, lf *ledgerFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tunit\tbetter\tbound\tmedian\tq1\tq3\tspread\tover")
	for _, wl := range workloadList {
		for _, d := range endToEnd {
			v := lf.values(wl.Name, d.Name)
			if len(v) == 0 {
				continue
			}
			q := quartilesOf(v)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t%.4g\t%.4g\t%.4g\t%.1f%%\t%d runs\n",
				wl.Name, d.Name, d.Unit, d.Better, wl.bound(d), q.med, q.q1, q.q3, 100*q.spread(), len(v))
		}
		runs, attempted, failed := lf.ops(wl.Name)
		if runs == 0 {
			continue
		}
		lat := lf.latencies(wl.Name)
		if p := highestPercentile(len(lat)); p > 50 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t%.4g\t\t\t\tp%g of %d ops\n",
				wl.Name, opTail.Name, opTail.Unit, opTail.Better, wl.bound(opTail), quantile(lat, p/100), p, len(lat))
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t-\t\t\t\t%d ops support only the median\n",
				wl.Name, opTail.Name, opTail.Unit, opTail.Better, len(lat))
		}
		fmt.Fprintf(tw, "%s\tops\tcount\t\t\t%d\t\t\t\t%d runs\n", wl.Name, attempted, runs)
		fmt.Fprintf(tw, "%s\tfailed_ops\tcount\t\t\t%d\t\t\t\t%d runs\n", wl.Name, failed, runs)
	}
	tw.Flush()

	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nper-layer metric\tunit\tbetter\tvalue")
	for _, d := range perLayer {
		if v := lf.layer(d.Name); len(v) > 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\n", d.Name, d.Unit, d.Better, median(v))
		}
	}
	tw.Flush()
}

// printTables prints the metric tables as markdown, for README.md.
func printTables(w io.Writer) {
	fmt.Fprintln(w, "| workload | why |\n|---|---|")
	for _, wl := range workloadList {
		fmt.Fprintf(w, "| `%s` | %s |\n", wl.Name, wl.Why)
	}
	fmt.Fprint(w, "\n| end-to-end metric | unit | better | bound in BENCHMARK.json |")
	for _, wl := range workloadList {
		fmt.Fprintf(w, " on `%s` |", wl.Name)
	}
	fmt.Fprintln(w, "\n|---|---|---|---|"+strings.Repeat("---|", len(workloadList)))
	for _, d := range append(append([]metricDef(nil), endToEnd...), opTail) {
		inFile := fmt.Sprintf("%.2f", d.Bound)
		if d.Name == opTail.Name {
			inFile = "(a full set's row)"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |", d.Name, d.Unit, d.Better, inFile)
		for _, wl := range workloadList {
			fmt.Fprintf(w, " %.2f |", wl.bound(d))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n| per-layer metric | unit | better | exact | should move |\n|---|---|---|---|---|")
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = "yes"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, exact, d.Moves)
	}
}

// benchmarkJSON is the shape of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []map[string]any    `json:"end_to_end"`
	PerLayer   []map[string]string `json:"per_layer"`
}

func benchmarkSpec() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloadList {
		b.Workloads = append(b.Workloads, map[string]string{"name": wl.Name, "why": wl.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, map[string]string{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return b
}

// writeBenchmarkJSON renders BENCHMARK.json from the tables in this
// package, so the file and the harness cannot drift apart (a self-test
// compares them).
func writeBenchmarkJSON(w io.Writer) error {
	data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
