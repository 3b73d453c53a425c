package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// selfTimes returns each span's self time, keyed by span ID: its duration
// minus the part of its interval that its child spans cover. Children may
// overlap each other (units on two workers) and may stick out of the
// parent (a queue-wait that ends where the job span starts); only the
// covered part inside the parent counts.
func selfTimes(spans []obs.Span) map[string]time.Duration {
	children := map[string][]obs.Span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Duration() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(lo, hi time.Time, spans []obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(end) {
			total += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			total += v.b.Sub(end)
			end = v.b
		}
	}
	return total
}

// jobTrace is one coordinator job's trace, read layer by layer. All times
// are milliseconds; the per-unit slices have one entry per unit attempt.
type jobTrace struct {
	job       float64 // the coordinator's job span
	queueWait float64
	preplan   float64 // job start → plan start: start record fsync, spec normalisation
	plan      float64
	cellprobe float64
	unitSpan  float64 // first unit start → last unit end
	merge     float64
	analysis  float64 // pca + hierarchical + kmeans + select
	finish    float64 // last stage end → job end: result-cache write

	unit, dispatch, exec, validate []float64
	unitGap                        []float64 // unit self time: not in dispatch, exec or validate
	execOverhead                   []float64 // exec self time: not in the worker's job span
	workerJob, workerCharacterize  []float64

	units      int // planned
	dispatched int // unit attempts that reached a worker
	retries    int // attempts beyond each unit's first
	probeHits  int
}

// sumRatio is how much of the job span the named layers account for.
func (t *jobTrace) sumRatio() float64 {
	return (t.preplan + t.plan + t.cellprobe + t.unitSpan + t.merge + t.analysis + t.finish) / t.job
}

// readJobTrace walks a coordinator trace export: the job span's children
// by name, each unit's dispatch/exec/validate children, and the worker
// spans imported under each exec.
func readJobTrace(x obs.TraceExport) (*jobTrace, error) {
	var root *obs.Span
	for i, s := range x.Spans {
		if s.Name == "job" && s.Worker == "" {
			root = &x.Spans[i]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("trace %s has no coordinator job span (%d spans, %d dropped)", x.JobID, len(x.Spans), x.DroppedSpans)
	}
	if x.DroppedSpans > 0 {
		return nil, fmt.Errorf("trace %s dropped %d spans", x.JobID, x.DroppedSpans)
	}
	t := &jobTrace{job: ms(root.Duration())}
	atoi := func(s string) int {
		n, _ := strconv.Atoi(s) // an absent attribute reads 0
		return n
	}
	self := selfTimes(x.Spans)
	var firstUnit, lastUnit, planStart, stageEnd time.Time
	unitOf := map[string]bool{} // span IDs of unit spans
	execOf := map[string]bool{} // span IDs of exec spans
	for _, s := range x.Spans {
		if s.Parent != root.ID || s.Worker != "" {
			continue
		}
		d := ms(s.Duration())
		switch s.Name {
		case "queue-wait":
			t.queueWait = d
		case "plan":
			t.plan, planStart = d, s.Start
			t.units = atoi(s.Attrs["units"])
		case "cellcache-probe":
			t.cellprobe = d
			t.probeHits = atoi(s.Attrs["hits"])
		case "unit":
			unitOf[s.ID] = true
			t.unit = append(t.unit, d)
			t.unitGap = append(t.unitGap, ms(self[s.ID]))
			t.dispatched++
			if atoi(s.Attrs["attempt"]) > 1 {
				t.retries++
			}
			if firstUnit.IsZero() || s.Start.Before(firstUnit) {
				firstUnit = s.Start
			}
			if s.End.After(lastUnit) {
				lastUnit = s.End
			}
		case "merge":
			t.merge = d
			stageEnd = s.End
		case "pca", "hierarchical", "kmeans", "select":
			t.analysis += d
			if s.End.After(stageEnd) {
				stageEnd = s.End
			}
		}
	}
	if planStart.IsZero() {
		return nil, fmt.Errorf("trace %s has no plan span", x.JobID)
	}
	t.preplan = ms(planStart.Sub(root.Start))
	t.unitSpan = ms(lastUnit.Sub(firstUnit))
	if !stageEnd.IsZero() {
		t.finish = ms(root.End.Sub(stageEnd))
	}
	for _, s := range x.Spans {
		d := ms(s.Duration())
		switch {
		case unitOf[s.Parent] && s.Name == "dispatch":
			t.dispatch = append(t.dispatch, d)
		case unitOf[s.Parent] && s.Name == "exec":
			t.exec = append(t.exec, d)
			t.execOverhead = append(t.execOverhead, ms(self[s.ID]))
			execOf[s.ID] = true
		case unitOf[s.Parent] && s.Name == "validate":
			t.validate = append(t.validate, d)
		}
	}
	for _, s := range x.Spans {
		if s.Worker == "" {
			continue
		}
		switch {
		case s.Name == "job" && execOf[s.Parent]:
			t.workerJob = append(t.workerJob, ms(s.Duration()))
		case s.Name == "characterize":
			t.workerCharacterize = append(t.workerCharacterize, ms(s.Duration()))
		}
	}
	return t, nil
}
