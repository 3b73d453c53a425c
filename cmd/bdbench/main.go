// Command bdbench characterizes workloads on the simulated five-node
// cluster and writes the workload×45 metric matrix as CSV — the
// data-collection stage of the paper (§IV). The workload registry is
// open: alongside the 32 built-ins it holds the embedded preset scenario
// families (StreamIngest, PointLookup, MLTrain, ETLScan, MemThrash,
// Stencil — each with H-/S- variants) and any custom definitions loaded
// from a -workload-file JSON (see DESIGN.md §8 for the schema).
//
// Usage:
//
//	bdbench [-out metrics.csv] [-workloads H-Sort,S-MemThrash,...]
//	        [-workload-file defs.json] [-list-workloads] [-nodes 4]
//	        [-instructions 60000] [-scale 4096] [-seed 20140901]
//	        [-runs 1] [-no-multiplex] [-jitter 0.06] [-parallelism 0]
//	        [-trace-out trace.json]
//
// With no -workloads selection the run covers the built-ins plus every
// -workload-file definition; presets join a run when named in
// -workloads. -list-workloads prints the full registry and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bdbench:", err)
		os.Exit(1)
	}
}

// options collects every flag so validation and config assembly are unit
// testable without going through the flag package or os.Exit.
type options struct {
	out           string
	workloads     string
	workloadFile  string
	listWorkloads bool
	nodes         int
	instr         int
	scale         float64
	seed          uint64
	runs          int
	slices        int
	noMultiplex   bool
	jitter        float64
	par           int
	traceOut      string
}

// validate rejects bad flag combinations up front, before any simulation
// work, with messages that name the offending flag.
func (o options) validate() error {
	if o.runs < 1 {
		return fmt.Errorf("-runs must be ≥1, got %d", o.runs)
	}
	if o.nodes < 1 {
		return fmt.Errorf("-nodes must be ≥1, got %d", o.nodes)
	}
	if o.instr < 1000 {
		return fmt.Errorf("-instructions must be ≥1000, got %d", o.instr)
	}
	if o.scale <= 0 {
		return fmt.Errorf("-scale must be >0, got %v", o.scale)
	}
	if o.slices < 0 {
		return fmt.Errorf("-slices must be ≥0, got %d", o.slices)
	}
	if o.jitter < 0 || o.jitter > 0.5 {
		return fmt.Errorf("-jitter must be in [0,0.5], got %v", o.jitter)
	}
	if o.par < 0 {
		return fmt.Errorf("-parallelism must be ≥0, got %d", o.par)
	}
	return nil
}

// fileDefs loads the -workload-file definitions (nil without the flag).
func (o options) fileDefs() ([]custom.Definition, error) {
	if o.workloadFile == "" {
		return nil, nil
	}
	defs, err := custom.LoadFile(o.workloadFile)
	if err != nil {
		return nil, fmt.Errorf("-workload-file: %w", err)
	}
	return defs, nil
}

// registry synthesizes the full name-resolvable workload registry —
// built-ins, then embedded presets, then -workload-file definitions —
// plus the source tag of every name. Preset and file definitions share
// one collision namespace, so a file redefining a preset name errors
// instead of silently shadowing it.
func (o options) registry(fileDefs []custom.Definition) ([]workloads.Workload, map[string]string, error) {
	cfg := workloads.Config{Seed: o.seed, Scale: o.scale}
	suite, err := workloads.Suite(cfg)
	if err != nil {
		return nil, nil, err
	}
	source := make(map[string]string, len(suite))
	for _, w := range suite {
		source[w.Name] = "built-in"
	}
	tag := func(defs []custom.Definition, label string) error {
		ws, err := custom.Build(defs, cfg)
		if err != nil {
			return err
		}
		for _, w := range ws {
			source[w.Name] = label
		}
		suite = append(suite, ws...)
		return nil
	}
	// One NormalizeAll over presets+file catches cross-source collisions;
	// building per source keeps the tags.
	if _, err := custom.NormalizeAll(append(append([]custom.Definition(nil), custom.Presets()...), fileDefs...)); err != nil {
		return nil, nil, err
	}
	if err := tag(custom.Presets(), "preset"); err != nil {
		return nil, nil, err
	}
	if err := tag(fileDefs, "file"); err != nil {
		return nil, nil, err
	}
	return suite, source, nil
}

// resolveSuite builds the workloads the invocation will run. With no
// -workloads selection: the built-ins plus every -workload-file
// definition (presets stay opt-in by name). With a selection: the named
// workloads, resolved against the full registry so preset names work
// without any file.
func (o options) resolveSuite() ([]workloads.Workload, error) {
	fileDefs, err := o.fileDefs()
	if err != nil {
		return nil, err
	}
	reg, source, err := o.registry(fileDefs)
	if err != nil {
		return nil, err
	}
	if o.workloads == "" {
		picked := make([]workloads.Workload, 0, len(reg))
		for _, w := range reg {
			if source[w.Name] != "preset" {
				picked = append(picked, w)
			}
		}
		return picked, nil
	}
	picked, err := workloads.Select(reg, strings.Split(o.workloads, ","))
	if err != nil {
		// The remedy for an unknown name is the registry listing itself:
		// the same table -list-workloads prints, on stderr.
		fmt.Fprintln(os.Stderr, "valid workloads:")
		writeWorkloadTable(os.Stderr, reg, source)
		return nil, fmt.Errorf("-workloads: %w", err)
	}
	return picked, nil
}

// writeWorkloadTable renders the registry with category/stack columns —
// shared by -list-workloads and the unknown-workload error path.
func writeWorkloadTable(w io.Writer, suite []workloads.Workload, source map[string]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tCATEGORY\tSTACK\tPROBLEM SIZE\tSOURCE")
	for _, wl := range suite {
		stackName := wl.Stack.Name
		if stackName == "" {
			stackName = "raw profile"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			wl.Name, wl.Category, stackName, wl.ProblemSize, source[wl.Name])
	}
	tw.Flush()
}

// clusterConfig assembles the cluster configuration from validated flags.
func (o options) clusterConfig() cluster.Config {
	ccfg := cluster.DefaultConfig()
	ccfg.SlaveNodes = o.nodes
	ccfg.InstructionsPerCore = o.instr
	ccfg.Seed = o.seed
	ccfg.Runs = o.runs
	ccfg.ExecutionJitter = o.jitter
	ccfg.Monitor.Multiplex = !o.noMultiplex
	ccfg.Parallelism = o.par
	if o.slices > 0 {
		ccfg.Slices = o.slices
	}
	return ccfg
}

func run() error {
	var o options
	flag.StringVar(&o.out, "out", "", "output CSV path (default stdout)")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workload names (default: built-ins + -workload-file definitions)")
	flag.StringVar(&o.workloadFile, "workload-file", "", "JSON file of custom workload definitions (DESIGN.md §8)")
	flag.BoolVar(&o.listWorkloads, "list-workloads", false, "print the workload registry (built-ins, presets, file definitions) and exit")
	flag.IntVar(&o.nodes, "nodes", 4, "slave nodes to measure")
	flag.IntVar(&o.instr, "instructions", 60000, "instructions per core per node")
	flag.Float64Var(&o.scale, "scale", 4096, "divisor applied to the paper's dataset sizes")
	flag.Uint64Var(&o.seed, "seed", 20140901, "seed for all stochastic components")
	flag.IntVar(&o.runs, "runs", 1, "measurement repetitions to average")
	flag.IntVar(&o.slices, "slices", 0, "PMC scheduling slices per run (0 = default)")
	flag.BoolVar(&o.noMultiplex, "no-multiplex", false, "disable PMC time multiplexing (exact counts)")
	flag.Float64Var(&o.jitter, "jitter", 0.06, "node/run execution variation sigma")
	flag.IntVar(&o.par, "parallelism", 0, "bound on concurrent node simulations (0 = GOMAXPROCS)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON of this run's pipeline stages (open in chrome://tracing or Perfetto)")
	flag.Parse()

	if err := o.validate(); err != nil {
		return err
	}
	if o.listWorkloads {
		fileDefs, err := o.fileDefs()
		if err != nil {
			return err
		}
		reg, source, err := o.registry(fileDefs)
		if err != nil {
			return err
		}
		writeWorkloadTable(os.Stdout, reg, source)
		return nil
	}
	suite, err := o.resolveSuite()
	if err != nil {
		return err
	}
	ccfg := o.clusterConfig()

	fmt.Fprintf(os.Stderr, "characterizing %d workloads on %d nodes (%d instr/core, %d run(s))...\n",
		len(suite), o.nodes, o.instr, o.runs)
	var (
		rec      *obs.FlightRecorder
		root     *obs.SpanHandle
		timer    *core.StageTimer
		progress core.Progress
	)
	// -trace-out runs the same pipeline under a local flight recorder: a
	// root job span with per-stage child spans from the stage timer —
	// the single-process sibling of a daemon's /v1/jobs/{id}/trace.
	const traceKey = "bdbench"
	if o.traceOut != "" {
		rec = obs.NewFlightRecorder(traceKey, 1, 4096)
		root = rec.StartSpan(traceKey, traceKey, "", "job")
		tc := &obs.TraceContext{Rec: rec, JobID: traceKey, TraceID: traceKey, Root: root.ID()}
		timer = core.NewStageTimer(nil, nil)
		timer.OnSpan(func(stage core.Stage, start, end time.Time) {
			tc.RecordInterval("", string(stage), start, end,
				map[string]string{"kind": "stage", "status": "ok"})
		})
		progress = timer.Progress
	}
	ds, err := core.CharacterizeSuiteCtx(context.Background(), suite, ccfg, progress)
	if timer != nil {
		timer.Finish()
		root.EndErr(err)
	}
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		export, _ := rec.Export(traceKey)
		data, err := obs.ChromeTrace(export)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans → %s\n", len(export.Spans), o.traceOut)
	}

	w := os.Stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return ds.WriteCSV(w)
}
