package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// daemon is one bdservd or bdcoord subprocess on a loopback port.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	errLog string        // path of its stderr
}

// live tracks every daemon started and not yet reaped, so that any exit
// path — an error return, a harness panic, Ctrl-C — can stop them all.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// stopAllDaemons is the last-resort sweep main defers.
func stopAllDaemons() {
	live.Lock()
	var ds []*daemon
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	stopDaemons(ds, stopGrace)
}

// freeAddrs asks the kernel for n unused loopback addresses. It holds all
// n listeners open until the last is chosen: asked one at a time, the
// kernel may hand a port out again before the daemon given it first has
// bound it, and the daemon that loses the race dies while health checks of
// its address are answered by the winner.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func startDaemon(e *env, dir, name, binary, addr string, args ...string) (*daemon, error) {
	errLog := filepath.Join(dir, name+".stderr")
	stderr, err := os.Create(errLog)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(e.binDir, binary), append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = stderr
	d, err := launch(name, cmd)
	if err != nil {
		return nil, err
	}
	d.url, d.errLog = "http://"+addr, errLog
	return d, nil
}

// launch starts cmd as a tracked child: it is in live until a goroutine of
// its own has reaped it.
func launch(name string, cmd *exec.Cmd) (*daemon, error) {
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	// Should the harness die without running its clean-up, the kernel
	// kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.Lock()
	live.m[d] = true
	live.Unlock()
	go func() {
		cmd.Wait() // the exit status of a signalled daemon says nothing
		live.Lock()
		delete(live.m, d)
		live.Unlock()
		close(d.exited)
	}()
	return d, nil
}

// waitHealthy polls /healthz until the daemon answers, exits, or ten
// seconds pass.
func (d *daemon) waitHealthy(ctx context.Context) error {
	c := client.New(d.url)
	deadline := time.Now().Add(10 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Health(hctx)
		cancel()
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it was healthy", d.name)
		default:
		}
		if err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it was healthy", d.name)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 10 s: %w", d.name, err)
		}
	}
}

// stopGrace is how long an interrupted daemon has to leave before it is
// killed.
const stopGrace = 3 * time.Second

// stopDaemons interrupts every daemon, gives them grace (all of them
// together, not each) to leave, kills the ones still running, and returns
// once all are reaped.
func stopDaemons(ds []*daemon, grace time.Duration) {
	for _, d := range ds {
		d.cmd.Process.Signal(os.Interrupt) // an already-exited process is fine
	}
	timer := time.NewTimer(grace)
	defer timer.Stop()
	for i, d := range ds {
		select {
		case <-d.exited:
		case <-timer.C:
			// The timer fires once: everything not yet seen to exit is
			// killed now, then reaped.
			for _, rest := range ds[i:] {
				rest.cmd.Process.Kill()
			}
			for _, rest := range ds[i:] {
				<-rest.exited
			}
			return
		}
	}
}

// fleet is one coordinator over two characterize-only workers, each with
// its own temp data dir.
type fleet struct {
	dir     string
	coord   *daemon
	workers []*daemon
	c       *client.Client
	stopped bool
}

const fleetWorkers = 2

// bootFleet starts the daemons with stock flags except the ones the
// workload fixes: workers at one grid worker each, the coordinator running
// two jobs at once, logs at warn, no stats ticker. traced leaves the span
// recorder at its default depth; untraced turns it off.
func bootFleet(e *env, traced bool) (*fleet, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.outDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	common := []string{"-log-level", "warn", "-stats-interval", "0"}
	if !traced {
		common = append(common, "-trace-buffer", "0")
	}
	ok := false
	defer func() {
		if !ok {
			f.stop(true)
		}
	}()
	addrs, err := freeAddrs(fleetWorkers + 1)
	if err != nil {
		return nil, fmt.Errorf("no free port: %w", err)
	}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("worker%d", i)
		args := append([]string{"-data-dir", filepath.Join(dir, name), "-characterize-only", "-parallelism", "1"}, common...)
		d, err := startDaemon(e, dir, name, "bdservd", addrs[i], args...)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, d)
		urls = append(urls, d.url)
	}
	args := append([]string{"-data-dir", filepath.Join(dir, "coord"), "-workers", strings.Join(urls, ","), "-concurrent-jobs", "2"}, common...)
	if f.coord, err = startDaemon(e, dir, "coord", "bdcoord", addrs[fleetWorkers], args...); err != nil {
		return nil, err
	}
	for _, d := range f.daemons() {
		if err := d.waitHealthy(e.ctx); err != nil {
			return nil, fmt.Errorf("%w (stderr kept in %s)", err, d.errLog)
		}
	}
	// One connection per client goroutine is all a closed loop can use.
	f.c = client.New(f.coord.url)
	f.c.HTTPClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.nproc, MaxConnsPerHost: e.nproc}}
	ok = true
	return f, nil
}

func (f *fleet) daemons() []*daemon {
	ds := append([]*daemon(nil), f.workers...)
	if f.coord != nil {
		ds = append(ds, f.coord)
	}
	return ds
}

// stop shuts the fleet down and removes its data; with keepLogs the
// daemons' stderr files stay behind for the failure report. Only the
// first call does anything.
func (f *fleet) stop(keepLogs bool) {
	if f == nil || f.stopped {
		return
	}
	f.stopped = true
	if f.c != nil {
		f.c.HTTPClient.CloseIdleConnections()
	}
	stopDaemons(f.daemons(), stopGrace)
	if !keepLogs {
		os.RemoveAll(f.dir)
		return
	}
	entries, _ := os.ReadDir(f.dir)
	for _, ent := range entries {
		if ent.IsDir() {
			os.RemoveAll(filepath.Join(f.dir, ent.Name()))
		}
	}
}

// jobResult is one job as a client saw it.
type jobResult struct {
	id      string
	data    []byte
	latency time.Duration // submit → result bytes
	hit     bool          // the submit was answered from the result cache
}

// runJob is the client's whole exchange for one job: submit, follow the
// event stream to the end, fetch the result. A job that does not end
// "done", or whose bytes do not hash to the advertised result hash, is an
// error.
func (f *fleet) runJob(ctx context.Context, spec service.JobSpec) (jobResult, error) {
	start := time.Now()
	st, err := f.c.SubmitSpec(ctx, spec)
	if err != nil {
		return jobResult{}, err
	}
	hit := st.CacheHit
	if st, err = f.c.WaitDone(ctx, st.ID, nil); err != nil {
		return jobResult{}, err
	}
	if st.State != service.StateDone {
		return jobResult{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	data, err := f.c.Result(ctx, st.ID)
	if err != nil {
		return jobResult{}, err
	}
	d := time.Since(start)
	if got := sha256Hex(data); got != st.ResultHash {
		return jobResult{}, fmt.Errorf("job %s: result hashes to %s, daemon advertised %s", st.ID, got, st.ResultHash)
	}
	return jobResult{id: st.ID, data: data, latency: d, hit: hit}, nil
}

// --- counters, read from outside ---------------------------------------

// samples is one scrape of a daemon's /metrics: series (name with its
// label set, as printed) → value.
type samples map[string]float64

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; the
		// registry prints no timestamps.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.IndexByte(line[i:], '}') >= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// sum adds every series of family whose label set contains all of match.
func (s samples) sum(family string, match ...string) float64 {
	total := 0.0
series:
	for k, v := range s {
		name, labels, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		for _, m := range match {
			if !strings.Contains(labels, m) {
				continue series
			}
		}
		total += v
	}
	return total
}

func (d *daemon) scrape(ctx context.Context) (samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", d.url, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// usage is a point-in-time reading of a fleet's processes and counters.
type usage struct {
	coordCPU, workerCPU float64 // seconds, user + system
	coord               samples
	workers             samples // the workers' series, summed
}

func (f *fleet) usage(ctx context.Context) (usage, error) {
	var u usage
	var err error
	if u.coordCPU, err = cpuSeconds(f.coord.cmd.Process.Pid); err != nil {
		return u, err
	}
	if u.coord, err = f.coord.scrape(ctx); err != nil {
		return u, err
	}
	u.workers = samples{}
	for _, w := range f.workers {
		cpu, err := cpuSeconds(w.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.workerCPU += cpu
		s, err := w.scrape(ctx)
		if err != nil {
			return u, err
		}
		for k, v := range s {
			u.workers[k] += v
		}
	}
	return u, nil
}

// userHZ is the unit of /proc/<pid>/stat's CPU times; Linux fixes it at
// 100 for every architecture Go runs on.
const userHZ = 100

// cpuSeconds reads utime+stime from /proc/<pid>/stat (0 = this process).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

func parseStatCPU(stat string) (float64, error) {
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: malformed CPU times")
	}
	return (utime + stime) / userHZ, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status (0 = this process).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}
