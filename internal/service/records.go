package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
)

// jobRecord is one job's persistent record: one entry of the job-record
// store, <data-dir>/jobs/<id>.json, keyed by job ID. It is written —
// atomically and fsynced — when a job is queued, and rewritten once when
// the job reaches done, failed or a user cancel. A job that shutdown cuts
// short keeps its queued state (with the spans it recorded so far), so
// the next boot re-adopts it. A born-done cache hit writes no record: its
// result is already in the result store, which is what done means.
//
// Boot reads every record in created order (see Manager.restore); the
// record of a job whose result some tier holds boots done whatever its
// state says, so a lost terminal write costs nothing.
type jobRecord struct {
	Spec     JobSpec    `json:"spec"`            // normalized
	Trace    string     `json:"trace,omitempty"` // propagated X-BD-Trace value
	State    State      `json:"state"`
	Hash     string     `json:"hash,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  time.Time  `json:"started,omitzero"`
	Finished time.Time  `json:"finished,omitzero"`
	Spans    []obs.Span `json:"spans,omitempty"` // a shutdown-cut job's trace so far
}

// recordStore keeps the job records. A nil store (no DataDir) keeps
// nothing and reports healthy: recovery follows DataDir.
type recordStore struct {
	store  *cellcache.Store
	writes *obs.Counter
	log    *slog.Logger

	mu      sync.Mutex
	failure string // the last write's error; "" once a write succeeds
}

// openRecords opens <dataDir>/jobs with no bound of its own: the
// retained job map is the bound. Eviction deletes a record with its job
// and boot trims only terminal ones, so no store sweep — which picks by
// file age, and would pick a long-queued job — ever removes a record.
// An empty dataDir disables records.
func openRecords(dataDir string, writes *obs.Counter, logger *slog.Logger) (*recordStore, error) {
	if dataDir == "" {
		return nil, nil
	}
	store, err := cellcache.Open(filepath.Join(dataDir, "jobs"), cellcache.Unbounded, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("service: opening job records: %w", err)
	}
	return &recordStore{store: store, writes: writes, log: logger}, nil
}

// put writes id's record. A failure is logged, returned, and held as the
// store's health until the next successful write.
func (rs *recordStore) put(id string, rec jobRecord) error {
	if rs == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err == nil {
		err = rs.store.Put(id, data)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err != nil {
		rs.log.Error("job record write failed", "job", id, "state", rec.State, "error", err)
		rs.failure = err.Error()
		return err
	}
	rs.failure = ""
	rs.writes.Inc()
	return nil
}

// remove deletes id's record, if any.
func (rs *recordStore) remove(id string) {
	if rs != nil {
		rs.store.Delete(id)
	}
}

// storedRecord is one record read back at boot.
type storedRecord struct {
	id string
	jobRecord
}

// load reads every record in created order. A record that fails to
// parse, or whose spec does not hash to its key, is deleted and counted
// by the store.
func (rs *recordStore) load() []storedRecord {
	if rs == nil {
		return nil
	}
	var out []storedRecord
	for _, id := range rs.store.Keys() {
		var rec jobRecord
		_, ok := rs.store.Get(id, func(data []byte) bool {
			if json.Unmarshal(data, &rec) != nil {
				return false
			}
			got, err := rec.Spec.id()
			return err == nil && got == id
		})
		if ok {
			out = append(out, storedRecord{id, rec})
		}
	}
	slices.SortFunc(out, func(a, b storedRecord) int {
		return cmp.Or(a.Created.Compare(b.Created), strings.Compare(a.id, b.id))
	})
	return out
}

// health reports whether the last record write succeeded, and its error
// if not. A failing record store means a restart could lose jobs; the
// daemon surfaces it as a degraded /healthz until a write succeeds again.
func (rs *recordStore) health() (ok bool, detail string) {
	if rs == nil {
		return true, ""
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.failure == "", rs.failure
}

// JobRecordsStatus is the job-record store's line in /v1/status.
type JobRecordsStatus struct {
	Enabled bool   `json:"enabled"`
	Entries int    `json:"entries"`
	Healthy bool   `json:"healthy"`
	Detail  string `json:"detail,omitempty"`
}

func (rs *recordStore) status() JobRecordsStatus {
	st := JobRecordsStatus{Enabled: rs != nil}
	st.Healthy, st.Detail = rs.health()
	if rs != nil {
		st.Entries = rs.store.Len()
	}
	return st
}
