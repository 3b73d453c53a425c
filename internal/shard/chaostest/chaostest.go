// Package chaostest is the in-process fault-injection harness for the
// shard coordinator: a reverse proxy wrapped around one bdservd worker
// that can inject request latency, cut NDJSON event streams mid-flight,
// corrupt result bodies into wrong-shape responses, and crash (sever the
// network, optionally swapping in a brand-new worker) and restart on a
// deterministic script. The coordinator talks to the proxy's URL exactly
// as it would to a real worker, so every injected fault exercises the
// real dispatch/retry/breaker path — and the package's property tests
// assert the work-stealing merge stays byte-identical to a single-daemon
// run under randomized grids, worker counts and fault scripts.
package chaostest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/benchio"
)

// Corrupt selects how a /result body is mangled into a wrong-shape
// response.
type Corrupt string

const (
	// CorruptNone passes the body through untouched.
	CorruptNone Corrupt = ""
	// CorruptDropWorkload removes the last cell row but keeps the label
	// list — a shape the coordinator's unit validation must reject.
	CorruptDropWorkload Corrupt = "drop-workload"
	// CorruptRenameMetric rewrites the first metric name — a
	// mixed-version-fleet simulation.
	CorruptRenameMetric Corrupt = "rename-metric"
	// CorruptNodeOffset shifts the reported node offset by one — cells
	// that would land on the wrong grid columns if merged.
	CorruptNodeOffset Corrupt = "node-offset"
	// CorruptGarbage replaces the body with non-JSON bytes.
	CorruptGarbage Corrupt = "garbage"
)

// StreamFault cuts one /events response after forwarding CutAfterLines
// NDJSON lines — a mid-stream disconnect with no terminal event.
type StreamFault struct {
	CutAfterLines int
}

// Script is one worker's deterministic fault plan. Fault lists are
// consumed in order by successive matching requests and then exhaust —
// a finite script eventually lets every request through clean, which is
// what makes randomized chaos runs convergent.
type Script struct {
	// Latency is added to every proxied request.
	Latency time.Duration
	// StreamFaults are consumed by successive /events requests.
	StreamFaults []StreamFault
	// ResultFaults are consumed by successive /result requests.
	ResultFaults []Corrupt
	// CrashAfterRequests, when positive, severs the proxy's network
	// (listener and all connections) when the Nth request arrives.
	CrashAfterRequests int
	// RestartAfter is how long a scripted crash lasts before the proxy
	// re-listens on the same address.
	RestartAfter time.Duration
}

// Proxy is one fault-injecting worker front. Create with New, point the
// coordinator at URL(), Close when done.
type Proxy struct {
	transport http.RoundTripper

	mu        sync.Mutex
	target    string
	addr      string
	srv       *http.Server
	script    Script
	requests  int
	streamIdx int
	resultIdx int
	closed    bool
	submitted []string // worker job IDs of accepted POST /v1/jobs

	// OnRestart, when set, is invoked before a scripted restart and
	// returns the target for the revived proxy — e.g. the URL of a
	// freshly booted worker, simulating a crash that lost all worker
	// state (cache, job records, in-flight jobs).
	OnRestart func() string
}

// New starts a proxy on a loopback port in front of target, applying
// script.
func New(target string, script Script) (*Proxy, error) {
	p := &Proxy{
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
		target:    strings.TrimRight(target, "/"),
		script:    script,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = ln.Addr().String()
	p.serveOn(ln)
	return p, nil
}

// URL returns the proxy's base URL — what the coordinator is configured
// with in place of the real worker.
func (p *Proxy) URL() string { return "http://" + p.addr }

func (p *Proxy) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: p}
	p.mu.Lock()
	p.srv = srv
	p.mu.Unlock()
	go srv.Serve(ln)
}

// Crash severs the proxy's network presence: the listener closes and
// every active connection — including event streams — is torn down. The
// backing worker keeps running; only the network dies, exactly like
// worker.kill in the coordinator tests but reversible via Restart.
func (p *Proxy) Crash() {
	p.mu.Lock()
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Restart re-listens on the proxy's original address. The port was just
// released by Crash, so a brief bind retry rides out the race with the
// kernel.
func (p *Proxy) Restart() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("chaostest: proxy closed")
	}
	addr := p.addr
	p.mu.Unlock()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaostest: rebinding %s: %w", addr, err)
	}
	p.serveOn(ln)
	return nil
}

// SubmittedIDs returns the worker-side job IDs of every accepted POST
// /v1/jobs that passed through the proxy, in arrival order (duplicates
// included). Unit job IDs are content-addressed, so recovery tests use
// this to assert a restarted coordinator never re-submits a unit it
// already recorded as done.
func (p *Proxy) SubmittedIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.submitted...)
}

// SetTarget repoints the proxy at a different worker (used with
// OnRestart-style fresh-worker crash simulations).
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = strings.TrimRight(target, "/")
	p.mu.Unlock()
}

// Close shuts the proxy down for good.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// plan consumes the script state for one incoming request.
func (p *Proxy) plan(r *http.Request) (target string, latency time.Duration, cut int, corrupt Corrupt, crash bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	target = p.target
	latency = p.script.Latency
	cut = -1
	corrupt = CorruptNone
	if p.script.CrashAfterRequests > 0 && p.requests == p.script.CrashAfterRequests {
		crash = true
		return
	}
	if strings.HasSuffix(r.URL.Path, "/events") && p.streamIdx < len(p.script.StreamFaults) {
		cut = p.script.StreamFaults[p.streamIdx].CutAfterLines
		p.streamIdx++
	}
	if strings.HasSuffix(r.URL.Path, "/result") && p.resultIdx < len(p.script.ResultFaults) {
		corrupt = p.script.ResultFaults[p.resultIdx]
		p.resultIdx++
	}
	return
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	target, latency, cut, corrupt, crash := p.plan(r)
	if crash {
		restart := p.script.RestartAfter
		go func() {
			p.Crash()
			time.Sleep(restart)
			if p.OnRestart != nil {
				p.SetTarget(p.OnRestart())
			}
			p.Restart() // error only after Close; nothing to do with it
		}()
		panic(http.ErrAbortHandler) // sever this connection uncleanly
	}
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-r.Context().Done():
			return
		}
	}

	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		http.Error(w, "chaostest: upstream: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()

	if corrupt != CorruptNone && resp.StatusCode == http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(corruptBody(body, corrupt))
		return
	}

	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/jobs") &&
		(resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		// Record the accepted submission's job ID for recovery assertions,
		// then pass the body through verbatim.
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		var st struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(body, &st) == nil && st.ID != "" {
			p.mu.Lock()
			p.submitted = append(p.submitted, st.ID)
			p.mu.Unlock()
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)

	if cut >= 0 {
		// Forward NDJSON lines one by one, then sever the connection
		// mid-stream: the client sees activity followed by a dead drop
		// with no terminal event.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		lines := 0
		for lines < cut && sc.Scan() {
			w.Write(sc.Bytes())
			w.Write([]byte("\n"))
			if flusher != nil {
				flusher.Flush()
			}
			lines++
		}
		panic(http.ErrAbortHandler)
	}

	buf := make([]byte, 4<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// corruptBody mangles an ObservationsJSON body per kind; bodies that fail
// to decode fall back to garbage (the point is a broken response, not a
// faithful one).
func corruptBody(body []byte, kind Corrupt) []byte {
	if kind == CorruptGarbage {
		return []byte(`{"labels": ["H-`)
	}
	var oj benchio.ObservationsJSON
	if err := json.Unmarshal(body, &oj); err != nil {
		return []byte(`{"labels": ["H-`)
	}
	switch kind {
	case CorruptDropWorkload:
		if len(oj.Cells) > 0 {
			oj.Cells = oj.Cells[:len(oj.Cells)-1]
		}
	case CorruptRenameMetric:
		if len(oj.Metrics) > 0 {
			oj.Metrics = append([]string(nil), oj.Metrics...)
			oj.Metrics[0] = oj.Metrics[0] + "-v2"
		}
	case CorruptNodeOffset:
		oj.NodeOffset++
	}
	out, err := json.Marshal(oj)
	if err != nil {
		return []byte(`{"labels": ["H-`)
	}
	return out
}
