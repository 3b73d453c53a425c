// Command bench is the repository's benchmark: five workloads, end-to-end
// numbers measured untraced, and a per-layer ledger measured from outside
// the programs (README.md). Run it through run.sh, which builds it and
// the two daemons:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run
//	bash bench/run.sh                                                  a full set
//	bash bench/run.sh -compare a.json b.json                           two sets
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins the canonical result SHA-256 of each workload's first
// operations at the default seed.
func golden() (map[string]string, error) {
	g := map[string]string{}
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// options are the command line.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	binDir       string
	outDir       string
	compare      bool
	list         bool
	benchJSON    bool
	updateGolden bool
	smoke        bool
	args         []string
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run one workload and print one result line (default: a full set)")
	flag.Uint64Var(&opt.seed, "seed", defaultSeed, "every generated input derives from it")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "length of the measured window of a run")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: the per-layer pass")
	flag.StringVar(&opt.binDir, "bin", "bench/out/.build/bin", "directory holding bdservd and bdcoord (run.sh builds them)")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory for temp data, kept daemon logs and ledger files")
	flag.BoolVar(&opt.compare, "compare", false, "compare two ledger files: -compare a.json b.json")
	flag.BoolVar(&opt.list, "list", false, "print the metric tables (markdown) and exit")
	flag.BoolVar(&opt.benchJSON, "benchmark-json", false, "print BENCHMARK.json from the tables and exit")
	flag.BoolVar(&opt.updateGolden, "update-golden", false, "one run at the default seed: write its result hashes into bench/golden.json")
	flag.BoolVar(&opt.smoke, "smoke", false, "self-test scale: same code paths, tiny inputs")
	flag.Parse()
	opt.args = flag.Args()
	os.Exit(run(opt))
}

func run(opt options) (code int) {
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return code
	}
	switch {
	case opt.list:
		printTables(os.Stdout)
		return 0
	case opt.benchJSON:
		if err := writeBenchmarkJSON(os.Stdout); err != nil {
			return fail(1, err)
		}
		return 0
	case opt.compare:
		if len(opt.args) != 2 {
			return fail(2, fmt.Errorf("-compare takes two ledger files"))
		}
		regressed, err := compareFiles(os.Stdout, opt.args[0], opt.args[1])
		if err != nil {
			return fail(1, err)
		}
		if regressed {
			return 3
		}
		return 0
	}
	if opt.seconds <= 0 || (opt.trace != 0 && opt.trace != 1) {
		return fail(2, fmt.Errorf("-seconds must be positive, -trace 0 or 1"))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// Whatever ends the run — a return, Ctrl-C, a panic on this goroutine —
	// no daemon outlives it.
	defer stopAllDaemons()
	abs := func(p string) string {
		if a, err := filepath.Abs(p); err == nil {
			return a
		}
		return p
	}
	e := &env{
		ctx: ctx, seed: opt.seed, seconds: opt.seconds, nproc: runtime.GOMAXPROCS(0),
		smoke: opt.smoke, binDir: abs(opt.binDir), outDir: abs(opt.outDir), log: os.Stderr,
	}

	if opt.workload == "" {
		if err := runSet(e); err != nil {
			return fail(1, err)
		}
		return 0
	}
	w, ok := findWorkload(opt.workload)
	if !ok {
		return fail(2, fmt.Errorf("unknown workload %q", opt.workload))
	}
	res, err := runOne(e, w, opt.trace == 1)
	if err != nil {
		return fail(1, err)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: failed op:", p)
	}
	if opt.updateGolden {
		if err := mergeGolden(res); err != nil {
			return fail(1, err)
		}
	}
	if err := printResultLine(os.Stdout, res); err != nil {
		return fail(1, err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// runOne runs one workload once, untraced or as the traced pass, and
// checks its result hashes against golden.json when the seed is the one
// the file pins. The zero workload names the traced pass of a full set, in
// which every workload's part gets the window.
func runOne(e *env, w workload, traced bool) (*runResult, error) {
	var (
		o    *opLog
		defs []metricDef
		m    metricSet
		lat  []float64
		err  error
	)
	if traced {
		defs = perLayer
		o, m, err = runLedger(e, w.Name)
	} else {
		defs = endToEnd
		if o, err = w.run(e); err == nil {
			m = o.endToEnd()
			lat = msAll(o.lat)
			if s := sortedCopy(lat); len(s) > 0 {
				e.logf("%s: %d ops in %.1fs; latency ms min %.4g, p25 %.4g, p50 %.4g, p75 %.4g, max %.4g", w.Name, len(s),
					o.window.Seconds(), s[0], quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), s[len(s)-1])
			}
		}
	}
	if err != nil {
		if w.Name == "" {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if e.seed == defaultSeed && !e.smoke {
		pins, err := golden()
		if err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		for label, hash := range o.hashes {
			if want, ok := pins[label]; ok && want != hash {
				o.fail("%s: result hashes to %s, golden.json pins %s", label, hash, want)
			}
		}
	}
	metrics, missing := m.render(defs)
	for _, name := range missing {
		o.fail("metric %s was not measured", name)
	}
	for _, d := range defs {
		// A time that reads zero or less is a broken instrument, not a
		// fast layer.
		if v, ok := m[d.Name]; ok && v <= 0 && d.isTime() {
			o.fail("metric %s reads %v %s", d.Name, v, d.Unit)
		}
	}
	sort.Strings(o.problems)
	return &runResult{
		Correct:   o.failed == 0 && len(o.lat) > 0,
		Attempted: len(o.lat) + o.failed,
		Failed:    o.failed,
		Metrics:   metrics,
		Workload:  w.Name,
		Seed:      e.seed,
		Seconds:   e.seconds,
		Trace:     traced,
		LatencyMS: lat,
		Problems:  o.problems,
		Hashes:    o.hashes,
	}, nil
}

// printResultLine writes the one JSON object the contract asks for as the
// last line of standard output: exactly correct, attempted, failed and
// metrics.
func printResultLine(w io.Writer, r *runResult) error {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// mergeGolden writes the run's hashes into bench/golden.json, keeping the
// labels other workloads own.
func mergeGolden(r *runResult) error {
	if r.Seed != defaultSeed || !r.Correct {
		return fmt.Errorf("-update-golden needs a correct run at the default seed")
	}
	pins, err := golden()
	if err != nil {
		return err
	}
	for k, v := range r.Hashes {
		pins[k] = v
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden.json"), append(data, '\n'), 0o644)
}
