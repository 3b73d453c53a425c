// Command report runs the paper's method end to end — characterize the
// suite on the simulated cluster (§IV), then PCA, clustering and
// subsetting (§V–§VI) — and prints Tables I–V, Figures 1–6 and the
// Section V observations. -only picks one of them, or "metrics": the
// workload×metric CSV, with no analysis.
//
// Its settings are the daemon's: -request reads a service.JobRequest (the
// body POST /v1/jobs takes), and -seed, -nodes, -instructions, -workloads
// and -workload-file set its fields; ToSpec and Normalized validate them
// before anything runs. The request's mode is ignored. A -workloads name
// from a preset family (e.g. H-MemThrash) adds that family to the presets.
// -server runs the characterization on a bdservd/bdcoord as an
// observations job and analyses the fetched matrix here, printing the
// bytes a local run prints. -in reuses a -save'd CSV.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/benchio"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// artifacts lists the analysis outputs in print order; -only names one of
// them, or "metrics" for the characterization CSV alone.
var artifacts = []string{
	"table1", "table2", "table3", "figure1", "figure2", "figure3", "figure4",
	"figure5", "table4", "table5", "figure6", "observations",
}

// options is report's parsed and validated command line.
type options struct {
	in, server, save, only, traceOut string
	trace, listWorkloads             bool
	spec                             service.JobSpec // normalized, analyze mode
}

// parseArgs parses the command line and materializes the request into a
// validated spec. Everything that can be checked without simulating is
// checked here.
func parseArgs(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.StringVar(&o.in, "in", "", "reuse a cached metrics CSV instead of simulating")
	fs.StringVar(&o.server, "server", "", "bdservd/bdcoord base URL: characterize there instead of locally")
	fs.StringVar(&o.save, "save", "", "write the characterization CSV here")
	fs.StringVar(&o.only, "only", "", "one of: "+strings.Join(artifacts, ", ")+", metrics")
	fs.BoolVar(&o.trace, "trace", false, "print a per-stage (and, with -server, per-worker) trace summary")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the trace as Chrome trace_event JSON (chrome://tracing, Perfetto)")
	fs.BoolVar(&o.listWorkloads, "list-workloads", false, "print the workload registry (built-ins, presets, custom definitions) and exit")
	reqFile := fs.String("request", "", "JSON job request: the body POST /v1/jobs takes")
	seed := fs.Uint64("seed", 0, "seed for all stochastic components (default 20140901)")
	nodes := fs.Int("nodes", 0, "slave nodes to measure (default 4)")
	instr := fs.Int("instructions", 0, "instructions per core per node (default 60000)")
	names := fs.String("workloads", "", "comma-separated workload names (default: built-ins + custom definitions)")
	defsFile := fs.String("workload-file", "", "JSON file of custom workload definitions to add to the suite (DESIGN.md §8)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.only = strings.ToLower(o.only)
	if o.only != "" && o.only != "metrics" && !slices.Contains(artifacts, o.only) {
		return nil, fmt.Errorf("unknown artifact %q", o.only)
	}
	if o.in != "" && o.server != "" {
		return nil, fmt.Errorf("-in and -server are mutually exclusive")
	}

	var req service.JobRequest
	if *reqFile != "" {
		// Decoded as the daemon decodes a submission: a typoed field is an
		// error, not silently ignored.
		data, err := os.ReadFile(*reqFile)
		if err == nil {
			err = service.DecodeStrict(bytes.NewReader(data), &req)
		}
		if err != nil {
			return nil, fmt.Errorf("-request: %w", err)
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			req.Seed = seed
		case "nodes":
			req.Nodes = nodes
		case "instructions":
			req.Instructions = instr
		case "workload-file":
			var defs []custom.Definition
			if defs, err = custom.LoadFile(*defsFile); err != nil {
				err = fmt.Errorf("-workload-file: %w", err)
			}
			req.CustomWorkloads = append(req.CustomWorkloads, defs...)
		case "workloads":
			req.Workloads = strings.Split(*names, ",")
			for _, p := range custom.Presets() {
				member := func(name string) bool { return slices.Contains(p.WorkloadNames(), strings.TrimSpace(name)) }
				if !slices.Contains(req.Presets, p.Name) && slices.ContainsFunc(req.Workloads, member) {
					req.Presets = append(req.Presets, p.Name)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	spec, err := req.ToSpec()
	if err == nil {
		spec.Mode = service.ModeAnalyze
		o.spec, err = spec.Normalized()
	}
	if err != nil {
		return nil, err
	}
	if o.in != "" && len(o.spec.CustomWorkloads) > 0 {
		// The CSV has no rows for them, yet Table I would list them.
		return nil, fmt.Errorf("-in excludes custom workloads (-workload-file, presets, custom_workloads): the CSV fixes the characterized suite")
	}
	return &o, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	if o.listWorkloads {
		return listWorkloads(stdout, o.spec)
	}
	suite, err := o.spec.ResolveSuite()
	if err != nil {
		return err
	}

	// Without -server a trace is recorded here, one span per pipeline
	// stage. With -server the daemon's recorder holds the whole story,
	// per-worker units included, and is fetched.
	ctx := context.Background()
	var (
		progress    core.Progress
		finishTrace func() *obs.TraceExport
		export      *obs.TraceExport
	)
	if (o.trace || o.traceOut != "") && o.server == "" {
		progress, finishTrace = localTrace()
	}
	var ds *core.Dataset
	if o.in != "" {
		data, err := os.ReadFile(o.in)
		if err != nil {
			return err
		}
		if ds, err = core.ReadCSV(bytes.NewReader(data)); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stderr, "characterizing %d workloads on %d nodes (%d instr/core)...\n",
			len(suite), o.spec.Cluster.SlaveNodes, o.spec.Cluster.InstructionsPerCore)
		var om *core.ObservationMatrix
		if om, export, err = characterize(ctx, o, suite, progress, stderr); err != nil {
			return err
		}
		if ds, err = om.Reduce(); err != nil {
			return err
		}
	}
	var csv bytes.Buffer
	if err := ds.WriteCSV(&csv); err != nil {
		return err
	}
	if o.save != "" {
		if err := os.WriteFile(o.save, csv.Bytes(), 0o644); err != nil {
			return err
		}
	}

	var an *core.Analysis
	if o.only != "metrics" {
		if an, err = core.AnalyzeCtx(ctx, ds, o.spec.Analysis, progress); err != nil {
			return err
		}
	}
	if finishTrace != nil {
		export = finishTrace()
	}
	if err := writeTrace(o, export, stdout); err != nil {
		return err
	}
	if an == nil {
		_, err := stdout.Write(csv.Bytes())
		return err
	}
	observed, err := an.Observe()
	if err != nil {
		return err
	}
	fig5, err := report.Figure5(an, observed)
	if err != nil {
		return err
	}
	bodies := map[string]string{
		"table1":       report.Table1(suite),
		"table2":       report.Table2(),
		"table3":       report.Table3(o.spec.Cluster.Machine),
		"figure1":      report.Figure1(an),
		"figure2":      report.Figure2(an),
		"figure3":      report.Figure3(an),
		"figure4":      report.Figure4(an),
		"figure5":      fig5,
		"table4":       report.Table4(an),
		"table5":       report.Table5(an),
		"figure6":      report.Figure6(an),
		"observations": report.ObservationsReport(observed),
	}
	for _, key := range artifacts {
		if o.only == "" || o.only == key {
			fmt.Fprintf(stdout, "%s\n\n", bodies[key])
		}
	}
	return nil
}

// characterize runs the spec's measurement grid over the resolved suite:
// in-process, or with -server as an observations job on the daemon, whose
// trace export it returns when one is wanted.
func characterize(ctx context.Context, o *options, suite []workloads.Workload, progress core.Progress, stderr io.Writer) (*core.ObservationMatrix, *obs.TraceExport, error) {
	if o.server == "" {
		om, err := core.CharacterizeObservationsCtx(ctx, suite, o.spec.Cluster, progress)
		return om, nil, err
	}
	spec := o.spec
	spec.Mode = service.ModeObservations
	c := client.New(o.server)
	st, err := c.SubmitSpec(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "submitted job %s to %s (state %s, cache hit %v)\n",
		st.ID, o.server, st.State, st.CacheHit)
	if st.State != service.StateDone {
		st, err = c.WaitDone(ctx, st.ID, func(ev service.Event) {
			if ev.Type == "stage" {
				fmt.Fprintf(stderr, "  stage %s\n", ev.Stage)
			} else if ev.Type == "progress" && ev.Total > 0 && ev.Done == ev.Total {
				fmt.Fprintf(stderr, "  %s: %d/%d cells\n", ev.Stage, ev.Done, ev.Total)
			}
		})
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("remote job ended %s: %s", st.State, st.Error)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	data, err := c.Result(ctx, st.ID)
	if err != nil {
		return nil, nil, err
	}
	var export *obs.TraceExport
	if o.trace || o.traceOut != "" {
		// Best effort: a daemon started with tracing disabled 404s here.
		if e, terr := c.Trace(ctx, st.ID); terr == nil {
			export = &e
		} else {
			fmt.Fprintf(stderr, "trace unavailable: %v\n", terr)
		}
	}
	printCellCacheTable(ctx, c, stderr)
	var oj benchio.ObservationsJSON
	if err := json.Unmarshal(data, &oj); err != nil {
		return nil, nil, fmt.Errorf("decoding remote result: %w", err)
	}
	om, err := oj.Observations()
	return om, export, err
}

// localTrace starts a flight recorder for an in-process run. It returns
// the progress hook that records each pipeline stage as a span under a
// root job span, and the function that ends the root and exports.
func localTrace() (core.Progress, func() *obs.TraceExport) {
	const key = "report"
	rec := obs.NewFlightRecorder(key, 1, 4096)
	root := rec.StartSpan(key, key, "", "job")
	tc := &obs.TraceContext{Rec: rec, JobID: key, TraceID: key, Root: root.ID()}
	timer := core.NewStageTimer(nil, nil)
	timer.OnSpan(func(stage core.Stage, start, end time.Time) {
		tc.RecordInterval("", string(stage), start, end,
			map[string]string{"kind": "stage", "status": "ok"})
	})
	return timer.Progress, func() *obs.TraceExport {
		timer.Finish()
		root.End()
		export, _ := rec.Export(key)
		return &export
	}
}

// writeTrace prints the trace summary (-trace) and writes its Chrome
// rendering (-trace-out); without an export it does nothing.
func writeTrace(o *options, export *obs.TraceExport, stdout io.Writer) error {
	if export != nil && o.trace {
		fmt.Fprintln(stdout, obs.Summarize(*export).Table())
	}
	if export == nil || o.traceOut == "" {
		return nil
	}
	data, err := obs.ChromeTrace(*export)
	if err == nil {
		err = os.WriteFile(o.traceOut, data, 0o644)
	}
	return err
}

// listWorkloads prints every workload a request can name, with its
// category, stack and source: the built-ins, every embedded preset family,
// then the spec's other custom definitions. Presets and custom definitions
// share one namespace, so a definition reusing a preset's name is an
// error, not a silent shadow.
func listWorkloads(w io.Writer, spec service.JobSpec) error {
	presets, err := custom.NormalizeAll(custom.Presets())
	if err != nil {
		return err
	}
	source := make(map[string]string)
	for _, name := range workloads.BuiltinNames() {
		source[name] = "built-in"
	}
	defs := presets
	for _, p := range presets {
		for _, name := range p.WorkloadNames() {
			source[name] = "preset"
		}
	}
	for _, d := range spec.CustomWorkloads {
		if !slices.ContainsFunc(presets, func(p custom.Definition) bool { return reflect.DeepEqual(p, d) }) {
			defs = append(defs, d)
		}
	}
	spec.Workloads, spec.CustomWorkloads = nil, defs
	reg, err := spec.ResolveSuite()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tCATEGORY\tSTACK\tPROBLEM SIZE\tSOURCE")
	for _, wl := range reg {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", wl.Name, wl.Category,
			cmp.Or(wl.Stack.Name, "raw profile"), wl.ProblemSize, cmp.Or(source[wl.Name], "custom"))
	}
	return tw.Flush()
}

// printCellCacheTable prints which workloads the daemon replayed from its
// cell cache and which it simulated. Best effort: no cache, no table.
func printCellCacheTable(ctx context.Context, c *client.Client, w io.Writer) {
	snap, err := c.Status(ctx)
	if err != nil || snap.CellCache == nil || len(snap.CellCache.ByWorkload) == 0 {
		return
	}
	cc := snap.CellCache
	fmt.Fprintf(w, "cell cache on %s: %d entries, hit ratio %.2f\n",
		c.BaseURL, cc.Entries, cc.HitRatio)
	fmt.Fprintf(w, "  %-24s %8s %8s %6s\n", "WORKLOAD", "HITS", "MISSES", "RATIO")
	for _, cw := range cc.ByWorkload {
		fmt.Fprintf(w, "  %-24s %8d %8d %6.2f\n", cw.Workload, cw.Hits, cw.Misses, cw.HitRatio)
	}
}
