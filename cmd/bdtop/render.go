package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cellcache"
	"repro/internal/service"
	"repro/internal/shard"
)

// fleetStatus is the wire shape of a daemon's GET /v1/status: the base
// snapshot every daemon serves, plus the fleet view bdcoord appends.
// Against a plain bdservd the fleet array is simply absent.
type fleetStatus struct {
	service.StatusSnapshot
	Fleet []shard.WorkerFleetStatus `json:"fleet"`
}

// sparkRunes maps normalized sample heights to terminal block glyphs.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders points (oldest first) as one block glyph each,
// scaled to the window's own min/max; a flat series draws low.
func sparkline(points []float64, width int) string {
	if len(points) > width && width > 0 {
		points = points[len(points)-width:]
	}
	if len(points) == 0 {
		return ""
	}
	lo, hi := points[0], points[0]
	for _, p := range points {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	var b strings.Builder
	for _, p := range points {
		i := 0
		if hi > lo {
			i = int((p - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtSeconds renders a latency quantile, "-" when it has no samples yet.
func fmtSeconds(s float64) string {
	if s <= 0 {
		return "-"
	}
	return fmtDuration(time.Duration(s * float64(time.Second)))
}

func progressBar(done, total, width int) string {
	if total <= 0 || width <= 0 {
		return ""
	}
	fill := done * width / total
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}

// maxWorkloadRows bounds the per-workload cellcache table in a frame;
// rows are shown most-requested first.
const maxWorkloadRows = 12

// renderFrame draws one complete console frame from a status snapshot.
// Pure: same snapshot + now + width, same frame — the golden test pins
// it. Plain text with no cursor control; the caller owns the screen.
func renderFrame(st fleetStatus, now time.Time, width int) string {
	if width < 60 {
		width = 60
	}
	var b strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}

	line("bdtop — %s  pid %d  up %s  %s  goroutines %d",
		st.Service, st.PID, fmtDuration(time.Duration(st.UptimeSeconds*float64(time.Second))),
		st.GoVersion, st.Goroutines)
	records := "records ok"
	if !st.JobRecords.Enabled {
		records = "records off"
	} else if !st.JobRecords.Healthy {
		records = "RECORDS DEGRADED: " + st.JobRecords.Detail
	}
	line("JOBS   queued %d  running %d  done %d  failed %d  canceled %d   queue %d/%d  busy %d/%d  %s",
		st.Jobs.Queued, st.Jobs.Running, st.Jobs.Done, st.Jobs.Failed, st.Jobs.Canceled,
		st.Queue.Depth, st.Queue.Capacity, st.Queue.Busy, st.Queue.Workers, records)

	if st.Window != nil && len(st.Window.Series) > 0 {
		line("")
		sw := width - 28
		for _, s := range st.Window.Series {
			if len(s.Points) == 0 {
				continue
			}
			line("  %-22s %s  now %.2f", s.Name, sparkline(s.Points, sw), s.Last())
		}
	}

	if st.Fleet != nil {
		unitsDone, open := 0, 0
		for _, w := range st.Fleet {
			unitsDone += w.UnitsDone
			if w.Breaker != shard.BreakerClosed {
				open++
			}
		}
		line("")
		line("FLEET  %d workers  units done %d  open breakers %d", len(st.Fleet), unitsDone, open)
		line("  %-28s %-9s %6s %5s %6s %8s %9s  %s",
			"WORKER", "BREAKER", "UNITS", "FAIL", "U/S", "UNIT-P95", "CELLHIT%", "STATUS")
		for _, w := range st.Fleet {
			cellhit, detail := "-", "ok"
			if w.StatusError != "" {
				detail = "unreachable: " + w.StatusError
			} else if w.Status != nil {
				detail = fmt.Sprintf("%s jobs r%d/q%d", w.Status.Service,
					w.Status.Jobs.Running, w.Status.Jobs.Queued)
				if w.Status.CellCache != nil {
					cellhit = fmt.Sprintf("%.2f", w.Status.CellCache.HitRatio)
				}
			}
			line("  %-28s %-9s %6d %5d %6.2f %8s %9s  %s",
				w.URL, w.Breaker, w.UnitsDone, w.UnitsFailed, w.UnitsPerSecond,
				fmtSeconds(w.UnitDurationP95), cellhit, detail)
		}
	}

	if len(st.ActiveJobs) > 0 {
		line("")
		line("ACTIVE JOBS")
		for _, j := range st.ActiveJobs {
			age := now.Sub(j.CreatedAt)
			bar := progressBar(j.CellsDone, j.CellsTotal, 20)
			line("  %s  %-8s %-14s %s %d/%d cells  age %s",
				j.ID, j.State, j.Stage, bar, j.CellsDone, j.CellsTotal, fmtDuration(age))
		}
	}

	line("")
	rc := st.ResultCache
	line("CACHES")
	line("  result cache  entries %d  hits %d (mem %d, disk %d)  misses %d  ratio %.2f",
		rc.Entries, rc.Hits, rc.MemoryHits, rc.DiskHits, rc.Misses, rc.HitRatio)
	if cc := st.CellCache; cc != nil {
		line("  cell cache    entries %d  disk %s  hits %d  misses %d  evicted %d  ratio %.2f",
			cc.Entries, fmtBytes(cc.DiskBytes), cc.Hits, cc.Misses, cc.Evicted, cc.HitRatio)
		if len(cc.ByWorkload) > 0 {
			rows := append([]cellcache.WorkloadStats(nil), cc.ByWorkload...)
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].Hits+rows[i].Misses > rows[j].Hits+rows[j].Misses
			})
			if len(rows) > maxWorkloadRows {
				rows = rows[:maxWorkloadRows]
			}
			line("    %-24s %6s %6s %6s", "WORKLOAD", "HITS", "MISS", "RATIO")
			for _, r := range rows {
				line("    %-24s %6d %6d %6.2f", r.Workload, r.Hits, r.Misses, r.HitRatio)
			}
		}
	}

	if len(st.Stages) > 0 {
		line("")
		line("STAGES")
		for _, sg := range st.Stages {
			line("  %-14s n=%-6d p50 %-8s p95 %-8s p99 %s",
				sg.Stage, sg.Count, fmtSeconds(sg.P50), fmtSeconds(sg.P95), fmtSeconds(sg.P99))
		}
	}
	return b.String()
}
