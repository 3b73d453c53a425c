package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/benchio"
	"repro/internal/cluster/hier"
	"repro/internal/core"
	"repro/internal/service"
)

// writeFile writes body to a fresh file in the test's temp dir.
func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeDefs writes a one-definition workload file and returns its path.
func writeDefs(t *testing.T, name string) string {
	return writeFile(t, "defs.json", `[{"name":"`+name+`","data":{"paper_bytes":1073741824,"skew":0.3},
		"mix":{"LoadFrac":0.3,"StoreFrac":0.1,"SeqFrac":0.6},"shuffle_frac":0.1}]`)
}

func mustParse(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v", args, err)
	}
	return o
}

func suiteNames(t *testing.T, o *options) []string {
	t.Helper()
	suite, err := o.spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(suite))
	for i, w := range suite {
		names[i] = w.Name
	}
	return names
}

func TestParseArgsAcceptsDefaults(t *testing.T) {
	want, err := service.DefaultSpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustParse(t).spec; !reflect.DeepEqual(got, want) {
		t.Errorf("no flags gave spec %+v, want the normalized default %+v", got, want)
	}
}

func TestParseArgsRejectsBadSettings(t *testing.T) {
	req := func(body string) string { return writeFile(t, "req.json", body) }
	spec, err := json.Marshal(service.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		args []string
		want string // the error must contain this
	}{
		"unknown artifact":   {[]string{"-only", "tabel4"}, `unknown artifact "tabel4"`},
		"in and server":      {[]string{"-in", "m.csv", "-server", "http://127.0.0.1:1"}, "-in and -server"},
		"in and file":        {[]string{"-in", "m.csv", "-workload-file", writeDefs(t, "Probe")}, "-in excludes custom workloads"},
		"in and preset":      {[]string{"-in", "m.csv", "-workloads", "H-MemThrash"}, "-in excludes custom workloads"},
		"stray argument":     {[]string{"table4"}, "unexpected argument"},
		"nodes negative":     {[]string{"-nodes", "-1"}, "slave node"},
		"instructions small": {[]string{"-instructions", "999"}, "InstructionsPerCore"},
		"missing file":       {[]string{"-workload-file", filepath.Join(t.TempDir(), "none.json")}, "-workload-file"},
		"runs negative":      {[]string{"-request", req(`{"runs":-3}`)}, "Runs"},
		"scale zero":         {[]string{"-request", req(`{"scale":0}`)}, "scale"},
		"slices negative":    {[]string{"-request", req(`{"slices":-1}`)}, "Slices"},
		"jitter huge":        {[]string{"-request", req(`{"jitter":0.75}`)}, "ExecutionJitter"},
		"K range":            {[]string{"-request", req(`{"kmin":5,"kmax":3}`)}, "K range"},
		"unknown linkage":    {[]string{"-request", req(`{"linkage":"median"}`)}, "linkage"},
		"unknown field":      {[]string{"-request", req(`{"nodez":2}`)}, "unknown field"},
		"trailing value":     {[]string{"-request", req(`{"nodes":2}{"nodes":3}`)}, "trailing data"},
		"spec and shorthand": {[]string{"-request", req(`{"spec":` + string(spec) + `}`), "-nodes", "2"}, "mutually exclusive"},
		"unknown preset":     {[]string{"-request", req(`{"presets":["Nope"]}`)}, "unknown preset"},
		"unknown flag":       {[]string{"-parallelism", "4"}, "not defined"},
	}
	for name, tc := range cases {
		_, err := parseArgs(tc.args)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
	}
}

// A bad argument fails before the (full-scale, minute-long) default grid
// would start: run prints its "characterizing" line just before the grid.
func TestRunRejectsBadArgsBeforeSimulating(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "tabel4"},
		{"-only", "table4", "-workloads", "H-Sort,H-Bogus"},
		{"-in", "m.csv", "-server", "http://127.0.0.1:1"},
	} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%q: accepted", args)
		}
		if strings.Contains(stderr.String(), "characterizing") || stdout.Len() > 0 {
			t.Errorf("%q: ran before failing (stdout %q, stderr %q)", args, stdout.String(), stderr.String())
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%q: took %v to fail", args, d)
		}
	}
}

func TestResolveSuiteSelectsInOrder(t *testing.T) {
	got := suiteNames(t, mustParse(t, "-workloads", "S-Sort, H-Grep"))
	if !reflect.DeepEqual(got, []string{"S-Sort", "H-Grep"}) {
		t.Fatalf("selected %v, want [S-Sort H-Grep]", got)
	}
	if n := len(suiteNames(t, mustParse(t))); n != 32 {
		t.Fatalf("full suite has %d workloads, want 32", n)
	}
}

func TestResolveSuiteUnknownNameListsValidNames(t *testing.T) {
	_, err := parseArgs([]string{"-workloads", "H-Sort,H-Bogus"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"H-Bogus"`) {
		t.Errorf("error does not name the unknown workload: %v", err)
	}
	// The remedy: the full valid-name list.
	for _, known := range []string{"H-Sort", "S-Sort", "H-PageRank", "S-Aggregation"} {
		if !strings.Contains(msg, known) {
			t.Errorf("error does not list valid name %s: %v", known, err)
		}
	}
}

func TestResolveSuiteRejectsEmptyAndDuplicateNames(t *testing.T) {
	for _, sel := range []string{"H-Sort,,S-Sort", "H-Sort,H-Sort", ""} {
		if _, err := parseArgs([]string{"-workloads", sel}); err == nil {
			t.Errorf("-workloads %q accepted", sel)
		}
	}
}

func TestResolveSuitePresetByName(t *testing.T) {
	o := mustParse(t, "-workloads", "H-MemThrash,S-StreamIngest")
	if got := suiteNames(t, o); !reflect.DeepEqual(got, []string{"H-MemThrash", "S-StreamIngest"}) {
		t.Fatalf("preset selection resolved to %v", got)
	}
	var families []string
	for _, d := range o.spec.CustomWorkloads {
		families = append(families, d.Name)
	}
	// Presets join in canonical family order; selection order fixes rows.
	if !reflect.DeepEqual(families, []string{"StreamIngest", "MemThrash"}) {
		t.Errorf("spec carries preset families %v", families)
	}
}

func TestResolveSuiteWorkloadFile(t *testing.T) {
	probe := writeDefs(t, "Probe")

	// No selection: built-ins + the file's H-/S- pair.
	names := suiteNames(t, mustParse(t, "-workload-file", probe))
	if len(names) != 34 {
		t.Fatalf("default run with a workload file has %d workloads, want 34", len(names))
	}
	if names[32] != "H-Probe" || names[33] != "S-Probe" {
		t.Errorf("file workloads not appended: %s, %s", names[32], names[33])
	}

	// Named selection mixing built-in, preset and file workloads.
	names = suiteNames(t, mustParse(t, "-workload-file", probe, "-workloads", "S-Probe,H-Sort,H-Stencil"))
	if !reflect.DeepEqual(names, []string{"S-Probe", "H-Sort", "H-Stencil"}) {
		t.Fatalf("mixed selection resolved to %v", names)
	}
}

func TestRegistryRejectsFilePresetCollision(t *testing.T) {
	clash := writeDefs(t, "StreamIngest")
	if _, err := parseArgs([]string{"-workload-file", clash, "-workloads", "H-StreamIngest"}); err == nil {
		t.Error("selecting a name that a file definition and a preset both define accepted")
	}
	if err := run([]string{"-workload-file", clash, "-list-workloads"}, io.Discard, io.Discard); err == nil {
		t.Error("registry with a file definition shadowing a preset accepted")
	}
}

func TestWorkloadTableListsRegistry(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-workloads", "-workload-file", writeDefs(t, "Probe")}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+32+12+2 {
		t.Fatalf("registry table has %d lines, want a header and 46 workloads:\n%s", len(lines), out.String())
	}
	for _, want := range []string{"NAME", "CATEGORY", "STACK", "SOURCE",
		"H-Sort", "built-in", "H-MemThrash", "preset", "H-Probe", "custom"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table missing %q:\n%s", want, out.String())
		}
	}
	// A preset the request already selects is listed once, as a preset.
	out.Reset()
	if err := run([]string{"-list-workloads", "-workloads", "H-MemThrash"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "H-MemThrash "); n != 1 || !strings.Contains(out.String(), "preset") {
		t.Errorf("selected preset listed %d times:\n%s", n, out.String())
	}
}

// The request file and the shorthands map onto the spec the daemon
// would run.
func TestRequestMapsToSpec(t *testing.T) {
	req := writeFile(t, "req.json",
		`{"runs":3,"multiplex":false,"jitter":0.1,"kmax":4,"linkage":"ward","restarts":5}`)
	s := mustParse(t, "-request", req, "-nodes", "2", "-instructions", "12000", "-seed", "7").spec
	c := s.Cluster
	if c.SlaveNodes != 2 || c.InstructionsPerCore != 12000 || c.Runs != 3 || c.Seed != 7 ||
		c.Monitor.Multiplex || c.ExecutionJitter != 0.1 || c.Parallelism != 0 {
		t.Errorf("cluster mapping wrong: %+v", c)
	}
	if s.Suite.Seed != 7 {
		t.Errorf("suite seed %d, want 7", s.Suite.Seed)
	}
	a := s.Analysis
	if a.KMin != 2 || a.KMax != 4 || a.Linkage != hier.Ward || a.KMeans.Restarts != 5 {
		t.Errorf("analysis mapping wrong: %+v", a)
	}
	// An unset slice count keeps the cluster default.
	if c.Slices != 120 {
		t.Errorf("default slices = %d, want 120", c.Slices)
	}
	// A request's mode does not change what report runs.
	if s := mustParse(t, "-request", writeFile(t, "obs.json", `{"mode":"observations"}`)).spec; s.Mode != service.ModeAnalyze || s.Analysis.KMax != 12 {
		t.Errorf("observations-mode request gave mode %q, analysis %+v", s.Mode, s.Analysis)
	}
}

// managerObservations runs spec as an observations job on m and returns
// its result bytes.
func managerObservations(t *testing.T, m *service.Manager, spec service.JobSpec) []byte {
	t.Helper()
	spec.Mode = service.ModeObservations
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); st.State != service.StateDone; {
		if st.State == service.StateFailed || st.State == service.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		st, _ = m.Get(st.ID)
	}
	data, ok := m.Result(st.ID)
	if !ok {
		t.Fatalf("job %s has no result", st.ID)
	}
	return data
}

func newManager(t *testing.T) *service.Manager {
	t.Helper()
	m, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// Both characterization paths — in-process and -server against a live
// daemon — produce the observation bytes the in-process daemon returns
// for the same request, and -only metrics prints that matrix reduced.
func TestCharacterizePathsMatchDaemon(t *testing.T) {
	args := []string{
		"-request", writeFile(t, "req.json", `{"nodes":2,"kmax":3}`),
		"-instructions", "6000",
		"-workload-file", writeDefs(t, "Probe"),
		"-workloads", "H-Sort,S-Grep,H-MemThrash,S-Probe",
	}
	o := mustParse(t, args...)
	want := sha256.Sum256(managerObservations(t, newManager(t), o.spec))

	srv := httptest.NewServer(service.NewHandler(newManager(t)))
	t.Cleanup(srv.Close)
	remote := mustParse(t, append(args, "-server", srv.URL)...)

	suite, err := o.spec.ResolveSuite()
	if err != nil {
		t.Fatal(err)
	}
	var local *core.ObservationMatrix
	for name, po := range map[string]*options{"local": o, "server": remote} {
		om, _, err := characterize(context.Background(), po, suite, nil, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := benchio.MarshalCanonical(benchio.EncodeObservations(om))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(data); got != want {
			t.Errorf("%s path observations sha256 %x, daemon %x", name, got, want)
		}
		if name == "local" {
			local = om
		}
	}

	ds, err := local.Reduce()
	if err != nil {
		t.Fatal(err)
	}
	var csv, out bytes.Buffer
	if err := ds.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := run(append(args, "-only", "metrics", "-trace-out", trace), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), csv.Bytes()) {
		t.Errorf("-only metrics printed\n%s\nwant the reduced matrix\n%s", out.String(), csv.String())
	}
	if data, err := os.ReadFile(trace); err != nil || !json.Valid(data) || !bytes.Contains(data, []byte("characterize")) {
		t.Errorf("-trace-out wrote %q (err %v), want a Chrome trace with the characterize stage", data, err)
	}
}
