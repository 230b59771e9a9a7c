package sim

import (
	"cmp"
	"fmt"
	"slices"

	"latencyhide/internal/fault"
	"latencyhide/internal/obs"
)

// Fault semantics in the engine (see internal/fault for the plan itself):
//
//   - Jitter adds extra delay to individual injections. Arrivals on one link
//     can then be non-monotone, so pushInflight keeps the in-flight list
//     sorted; jitter is additive-only, which keeps the driver's boundary
//     lookahead (clock + base link delay) safe.
//   - An outage keeps a link's injection loop from running; queued messages
//     wait (the link stays in txActive, so the engine keeps stepping) and
//     inject when the link recovers. Nothing is ever dropped.
//   - A slowdown caps a workstation's per-step compute via
//     fault.ComputeLimit in runCompute.
//   - A crash-stop writes off the host's remaining pebbles at the crash
//     step, empties its ready heap and freezes its replicas; the host keeps
//     relaying link traffic. Crash-stop hosts are excluded from routing up
//     front — static failover onto surviving replicas — and a column whose
//     every holder crashes makes the run fail fast with UncomputableError.
//
// Everything above is driven by pure (seed, site, step) queries, so every
// chunk count sees identical faults and stays bit-identical; fault
// telemetry (obs.KindFault spans) is synthesised from the plan after the
// run.

// UncomputableError reports a run that cannot complete: every replica of the
// named columns lives on a crash-stop host, so no surviving workstation can
// ever compute them. Detected statically before the run starts.
type UncomputableError struct {
	Columns []int // orphaned guest columns, ascending
	Crashed []int // crash-stop hosts, ascending
}

func (e *UncomputableError) Error() string {
	cols := e.Columns
	suffix := ""
	if len(cols) > 8 {
		suffix = fmt.Sprintf(" (+%d more)", len(cols)-8)
		cols = cols[:8]
	}
	return fmt.Sprintf("sim: columns %v%s uncomputable: every replica is on a crash-stop host %v",
		cols, suffix, e.Crashed)
}

// crashEvent is one pending crash-stop inside a chunk, ordered by step.
type crashEvent struct {
	step int64
	pos  int32
}

// initFaults installs the fault plan on a freshly built chunk.
func (c *chunk) initFaults(p *fault.Plan) {
	if !p.Enabled() {
		return
	}
	c.faults = p
	for pos := c.lo; pos < c.hi; pos++ {
		if s, ok := p.CrashStep(pos); ok {
			c.crashQ = append(c.crashQ, crashEvent{step: s, pos: int32(pos)})
		}
	}
	// Positions are appended ascending, so a stable sort by step leaves the
	// queue (step, pos)-sorted.
	slices.SortStableFunc(c.crashQ, func(a, b crashEvent) int { return cmp.Compare(a.step, b.step) })
}

// applyCrashes executes every crash-stop due at or before the current step:
// the workstation's pending work is written off and it never computes again.
// Its knowledge table keeps accepting deliveries (the network is healthy),
// but recordValue no longer schedules work for it.
func (c *chunk) applyCrashes() {
	for len(c.crashQ) > 0 && c.crashQ[0].step <= c.now {
		p := c.proc(int(c.crashQ[0].pos))
		c.crashQ = c.crashQ[1:]
		p.crashed = true
		clear(p.ready.bits)
		p.ready.n = 0
		c.remaining -= p.remaining
		c.retotal(-p.remaining)
		p.remaining = 0
	}
}

// orphanedColumns returns the guest columns whose every holder is in the
// crashed set.
func orphanedColumns(cfg *Config, crashed []int) []int {
	dead := make(map[int]bool, len(crashed))
	for _, h := range crashed {
		dead[h] = true
	}
	var orphans []int
	for col, hs := range cfg.Assign.Holders {
		all := true
		for _, h := range hs {
			if !dead[h] {
				all = false
				break
			}
		}
		if all {
			orphans = append(orphans, col)
		}
	}
	return orphans
}

// faultEvents synthesises the run's obs.KindFault telemetry spans from the
// plan and the run's HostSteps, so the spans are bit-identical for every
// chunk count by construction.
func faultEvents(cfg *Config, hostSteps int64) []obs.Event {
	p := cfg.Faults
	if !p.Enabled() || hostSteps <= 0 {
		return nil
	}
	var events []obs.Event
	links := len(cfg.Delays)
	for _, l := range p.JitterLinks(links) {
		events = append(events, obs.Event{
			Step: 1, Kind: obs.KindFault, Fault: obs.FaultJitter,
			Proc: -1, Link: int32(l), Route: -1, Dur: hostSteps,
		})
	}
	for _, l := range p.SpikeLinks(links) {
		events = append(events, obs.Event{
			Step: 1, Kind: obs.KindFault, Fault: obs.FaultSpike,
			Proc: -1, Link: int32(l), Route: -1, Dur: hostSteps,
		})
	}
	if len(p.Outages) > 0 || len(p.Drifts) > 0 || len(p.Churns) > 0 {
		for l := 0; l < links; l++ {
			for _, iv := range p.OutageIntervals(l, hostSteps) {
				events = append(events, obs.Event{
					Step: iv.Lo, Kind: obs.KindFault, Fault: obs.FaultOutage,
					Proc: -1, Link: int32(l), Route: -1, Dur: iv.Hi - iv.Lo + 1,
				})
			}
		}
	}
	if len(p.Slowdowns) > 0 {
		for h := 0; h < cfg.hostN(); h++ {
			for _, iv := range p.SlowIntervals(h, hostSteps) {
				events = append(events, obs.Event{
					Step: iv.Lo, Kind: obs.KindFault, Fault: obs.FaultSlow,
					Proc: int32(h), Link: -1, Route: -1, Dur: iv.Hi - iv.Lo + 1,
				})
			}
		}
	}
	for _, h := range p.CrashedHosts() {
		s, _ := p.CrashStep(h)
		if s > hostSteps {
			continue // crashed after the run already finished
		}
		events = append(events, obs.Event{
			Step: s, Kind: obs.KindFault, Fault: obs.FaultCrash,
			Proc: int32(h), Link: -1, Route: -1, Dur: hostSteps - s + 1,
		})
	}
	return events
}
