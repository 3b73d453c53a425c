package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// journalRecord is one NDJSON line of the persistent job journal. The
// journal is append-only during operation: Submit writes a "submit"
// record carrying the normalized spec, the executor writes "start" and a
// terminal "done" (with the result hash) / "fail" / "cancel", and on boot
// the daemon replays the file so job metadata — in particular the
// done-job → result-hash mapping — survives restarts. Result bytes
// themselves live in the on-disk result cache; the journal only restores
// the records that point at them.
//
// A restarted daemon re-adopts non-terminal jobs and runs them again from
// the start; a sharded executor recovers their finished columns from its
// cell cache, so the journal carries no unit-level progress. Record types
// this version does not know — such as the unit-progress lines older
// versions wrote — are skipped on replay and dropped by the next
// compaction. Tracing adds a "span" record per completed span (see internal/obs):
// replay restores the spans of non-terminal jobs into the flight
// recorder, so a re-adopted job's trace carries its pre-crash history;
// terminal jobs drop their spans, keeping the journal bounded.
type journalRecord struct {
	TS    time.Time `json:"ts"`
	Type  string    `json:"type"` // submit | start | span | done | fail | cancel
	ID    string    `json:"id"`
	Spec  *JobSpec  `json:"spec,omitempty"`  // on submit
	Trace string    `json:"trace,omitempty"` // on submit: propagated X-BD-Trace value
	Hash  string    `json:"hash,omitempty"`  // on done
	Err   string    `json:"error,omitempty"`
	Span  *obs.Span `json:"span,omitempty"` // on span: one completed trace span
}

// replayedJob is the state of one job reconstructed from the journal.
// A zero state means the job never reached a terminal record — the
// daemon died while it was queued or running.
type replayedJob struct {
	id       string
	spec     JobSpec
	state    State
	hash     string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	trace    string     // propagated X-BD-Trace value from submit
	spans    []obs.Span // journaled trace spans (non-terminal jobs only)
}

// journalMsg is one unit of writer-goroutine work: a record to append,
// or (when compact is non-nil) a request to rewrite the file down to the
// given terminal jobs.
type journalMsg struct {
	rec     journalRecord
	compact []replayedJob
}

// journal owns the append handle. Appends are asynchronous: append is a
// bounded channel send (so callers — including Submit under the
// manager's lock — never block on disk I/O in the common case) and a
// single writer goroutine serializes the encodes in send order, which
// preserves the per-job submit → start → terminal causal order the
// replay relies on. Close drains the channel before closing the file, so
// a clean shutdown loses nothing.
//
// The file is compacted at boot and again whenever appends since the
// last compaction exceed a multiple of the retained-job bound (see
// Manager.maybeCompactJournal), so a long-running daemon's journal stays
// proportional to its job history instead of growing without bound.
type journal struct {
	path string
	f    *os.File
	enc  *json.Encoder
	ch   chan journalMsg
	done chan struct{}
	log  *slog.Logger
	mx   *journalMetrics

	// appends counts records queued since the last compaction request;
	// Manager.maybeCompactJournal resets it when it makes one.
	appends atomic.Int64

	// failure records the first persistent write problem (append encode
	// error, failed compaction, failed reopen). It is sticky: once the
	// journal has lost a record, restart replay can no longer be trusted
	// to be complete, and the daemon's /healthz reports degraded until
	// an operator intervenes. Appends keep being attempted — the disk
	// may recover and later records still narrow the replay gap.
	failMu  sync.Mutex
	failure string
}

// fail records a persistent journal failure (first error wins).
func (jl *journal) fail(err error) {
	jl.failMu.Lock()
	defer jl.failMu.Unlock()
	if jl.failure == "" {
		jl.failure = err.Error()
	}
}

// health reports whether the journal has ever hit a persistent write
// failure, and the first error if so.
func (jl *journal) health() (ok bool, detail string) {
	if jl == nil {
		return true, ""
	}
	jl.failMu.Lock()
	defer jl.failMu.Unlock()
	return jl.failure == "", jl.failure
}

// openJournal replays an existing journal at path (tolerating a trailing
// partial line from a crashed writer), compacts it — rewriting the
// surviving jobs, keeping at most the newest maxJobs — and returns the
// replayed jobs in submission order together with an open append handle.
// Non-terminal jobs (the daemon died while they were queued or running)
// are returned too, so the caller can re-adopt and finish them.
func openJournal(path string, maxJobs int, logger *slog.Logger, mx *journalMetrics) (*journal, []replayedJob, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if mx == nil {
		mx = newSvcMetrics(obs.NewRegistry()).journal
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("service: creating journal dir: %w", err)
		}
	}
	jobs, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if maxJobs > 0 && len(jobs) > maxJobs {
		jobs = jobs[len(jobs)-maxJobs:]
	}
	if err := compactJournal(path, jobs); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal: %w", err)
	}
	jl := &journal{
		path: path,
		f:    f,
		enc:  json.NewEncoder(f),
		ch:   make(chan journalMsg, 256),
		done: make(chan struct{}),
		log:  logger,
		mx:   mx,
	}
	go jl.run()
	return jl, jobs, nil
}

// run is the single writer goroutine: it drains the channel in order,
// appending records and servicing compaction requests (which rewrite the
// file and swap the handle — all file ops stay on this goroutine). Write
// errors degrade restart replay, not running jobs — the result cache
// stays authoritative — so they are logged and dropped.
func (jl *journal) run() {
	defer close(jl.done)
	for msg := range jl.ch {
		if msg.compact != nil {
			jl.f.Close()
			if err := compactJournal(jl.path, msg.compact); err != nil {
				jl.log.Error("journal compaction failed", "path", jl.path, "error", err)
				jl.mx.failures.Inc()
				jl.fail(err)
			} else {
				jl.mx.compactions.Inc()
			}
			f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				// Disk trouble: disable further appends rather than crash
				// running jobs; the next boot re-replays what exists.
				jl.log.Error("journal reopen failed; journal disabled", "path", jl.path, "error", err)
				jl.mx.failures.Inc()
				jl.fail(err)
				jl.f, jl.enc = nil, nil
			} else {
				jl.f, jl.enc = f, json.NewEncoder(f)
			}
			continue
		}
		if jl.enc == nil {
			continue
		}
		if err := jl.enc.Encode(msg.rec); err != nil {
			jl.log.Error("journal append failed", "type", msg.rec.Type, "job", msg.rec.ID, "error", err)
			jl.mx.failures.Inc()
			jl.fail(err)
		} else {
			jl.mx.appends.Inc()
		}
	}
}

// replayJournal folds the journal's records into per-job terminal state.
func replayJournal(path string) ([]replayedJob, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading journal: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*replayedJob)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn trailing line from a crash mid-append: everything
			// before it replayed cleanly, so stop here rather than fail
			// the whole boot.
			break
		}
		switch rec.Type {
		case "submit":
			if rec.Spec == nil {
				continue
			}
			if old, ok := byID[rec.ID]; ok {
				// Resubmission after a failure/eviction: the fresh record
				// supersedes the old one and moves to the back of the
				// submission order, mirroring live Submit.
				for i, id := range order {
					if id == rec.ID {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
				*old = replayedJob{id: rec.ID, spec: *rec.Spec, created: rec.TS, trace: rec.Trace}
			} else {
				byID[rec.ID] = &replayedJob{id: rec.ID, spec: *rec.Spec, created: rec.TS, trace: rec.Trace}
			}
			order = append(order, rec.ID)
		case "start":
			if j, ok := byID[rec.ID]; ok {
				j.started = rec.TS
			}
		case "span":
			if j, ok := byID[rec.ID]; ok && rec.Span != nil {
				j.spans = append(j.spans, *rec.Span)
			}
		case "done":
			if j, ok := byID[rec.ID]; ok {
				j.state, j.hash, j.finished = StateDone, rec.Hash, rec.TS
				j.spans = nil
			}
		case "fail":
			if j, ok := byID[rec.ID]; ok {
				j.state, j.errMsg, j.finished = StateFailed, rec.Err, rec.TS
				j.spans = nil
			}
		case "cancel":
			if j, ok := byID[rec.ID]; ok {
				j.state, j.finished = StateCanceled, rec.TS
				j.spans = nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: scanning journal: %w", err)
	}

	// Terminal AND non-terminal jobs are returned: a job the daemon died
	// on keeps its submit record so the next incarnation can re-adopt it
	// instead of forfeiting the work.
	out := make([]replayedJob, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, nil
}

// compactJournal rewrites the journal to exactly the surviving jobs:
// submit + terminal record for finished jobs, submit (+ start and trace
// spans) for jobs still in flight — so the file stays
// bounded by the live job history instead of growing across restarts.
// The rewrite is atomic: a crash mid-compaction leaves the old journal
// in place.
func compactJournal(path string, jobs []replayedJob) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("service: compacting journal: %w", err)
	}
	enc := json.NewEncoder(f)
	writeErr := func() error {
		for i := range jobs {
			j := &jobs[i]
			spec := j.spec
			if err := enc.Encode(journalRecord{TS: j.created, Type: "submit", ID: j.id, Spec: &spec, Trace: j.trace}); err != nil {
				return err
			}
			if !j.started.IsZero() {
				if err := enc.Encode(journalRecord{TS: j.started, Type: "start", ID: j.id}); err != nil {
					return err
				}
			}
			var rec journalRecord
			switch j.state {
			case StateDone:
				rec = journalRecord{TS: j.finished, Type: "done", ID: j.id, Hash: j.hash}
			case StateFailed:
				rec = journalRecord{TS: j.finished, Type: "fail", ID: j.id, Err: j.errMsg}
			case StateCanceled:
				rec = journalRecord{TS: j.finished, Type: "cancel", ID: j.id}
			default:
				// Still in flight: keep its trace spans instead of a
				// terminal record.
				for s := range j.spans {
					sp := j.spans[s]
					if err := enc.Encode(journalRecord{TS: sp.End, Type: "span", ID: j.id, Span: &sp}); err != nil {
						return err
					}
				}
				continue
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}()
	if writeErr != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("service: compacting journal: %w", writeErr)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: compacting journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: committing journal: %w", err)
	}
	return nil
}

// append enqueues one record for the writer goroutine. It only blocks
// when the writer is more than a full channel behind — disk-speed
// backpressure, not per-record disk latency. Callers guard against a
// concurrent Close through the manager's journal mutex.
func (jl *journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	jl.appends.Add(1)
	jl.ch <- journalMsg{rec: rec}
}

// requestCompact enqueues a compaction down to the given terminal jobs.
// Same Close guard as append.
func (jl *journal) requestCompact(jobs []replayedJob) {
	if jl == nil {
		return
	}
	if jobs == nil {
		jobs = []replayedJob{}
	}
	jl.ch <- journalMsg{compact: jobs}
}

// Close drains pending appends, stops the writer and closes the file.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	close(jl.ch)
	<-jl.done
	if jl.f == nil {
		return nil
	}
	return jl.f.Close()
}
