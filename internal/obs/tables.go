package obs

import (
	"fmt"
	"strings"

	"latencyhide/internal/metrics"
)

// StallTable renders the stall-cause breakdown as a metrics table.
func StallTable(sb StallBreakdown) *metrics.Table {
	t := metrics.NewTable("stall-cause breakdown",
		"cause", "proc-steps", "share")
	pct := func(x int64) string {
		if sb.ProcSteps <= 0 {
			return "0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(x)/float64(sb.ProcSteps))
	}
	t.AddRow("busy", sb.Busy, pct(sb.Busy))
	t.AddRow("dependency-stall", sb.Dependency, pct(sb.Dependency))
	t.AddRow("bandwidth-stall", sb.Bandwidth, pct(sb.Bandwidth))
	t.AddRow("fault-stall", sb.Fault, pct(sb.Fault))
	t.AddRow("idle", sb.Idle, pct(sb.Idle))
	t.AddRow("total", sb.ProcSteps, pct(sb.ProcSteps))
	return t
}

// CritPathTable renders the critical-path decomposition as a metrics table.
func CritPathTable(cp *CriticalPath) *metrics.Table {
	t := metrics.NewTable("critical path (longest compute->message->compute chain)",
		"component", "steps", "share")
	add := func(name string, x int64, sh float64) {
		t.AddRow(name, x, fmt.Sprintf("%.1f%%", 100*sh))
	}
	add("compute", cp.Compute, cp.ComputeShare())
	add("transit", cp.Transit, cp.TransitShare())
	add("queue", cp.Queue, cp.QueueShare())
	add("wait", cp.Wait, cp.WaitShare())
	t.AddRow("length", cp.Length, "100.0%")
	t.AddNote("%d chain nodes; latency-bound share (compute+transit) %.1f%%",
		len(cp.Nodes), 100*cp.LatencyBoundShare())
	return t
}

// LinkTable renders the per-link gauges as a metrics table.
func LinkTable(gauges []LinkGauge) *metrics.Table {
	t := metrics.NewTable("link gauges",
		"link", "dir", "delay", "bw", "injects", "util", "peakQ", "queue-steps")
	for _, g := range gauges {
		dir := "->"
		if g.Dir < 0 {
			dir = "<-"
		}
		t.AddRow(g.Link, dir, g.Delay, g.BW, g.Injects,
			fmt.Sprintf("%.3f", g.Utilization), g.PeakQueue, g.QueueSteps)
	}
	return t
}

// HeatmapString renders the heatmap as one sparkline row per workstation,
// normalised to the busiest window. Rows are capped at maxRows (0 = all);
// when capped, evenly spaced positions are shown.
func HeatmapString(h *Heatmap, maxRows int) string {
	n := len(h.Counts)
	if n == 0 {
		return ""
	}
	rows := n
	if maxRows > 0 && maxRows < n {
		rows = maxRows
	}
	var peak int64 = 1
	for _, r := range h.Counts {
		for _, c := range r {
			if c > peak {
				peak = c
			}
		}
	}
	ramp := []byte(" .:-=+*#%@")
	var b strings.Builder
	for i := 0; i < rows; i++ {
		p := i * n / rows
		fmt.Fprintf(&b, "p%-5d ", p)
		for _, c := range h.Counts[p] {
			idx := int(c * int64(len(ramp)-1) / peak)
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
