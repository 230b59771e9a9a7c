// Package obs is the engine's observability layer: a structured event
// stream recorded by the simulator (package sim), derived instruments
// (per-processor compute heatmaps, per-link queue and bandwidth gauges, a
// stall-cause breakdown), a critical-path extractor over the recorded
// dataflow, and exporters (Chrome trace-event JSON, CSV tables, a JSON run
// summary).
//
// The stream is canonical: events are totally ordered by
// (step, kind, proc, link, dir, col, gstep, route), so the sequential and
// parallel engines — which produce the same event multiset step by step —
// hand identical streams to the run's Buffer. This extends the engines'
// bit-identical-results guarantee to the observability layer; tests in
// internal/sim assert it.
//
// Recording is opt-in and costs nothing when disabled: the engine guards
// every record call behind a nil check on its Buffer.
package obs

import (
	"slices"
	"sort"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindCompute: a workstation computed pebble (Col, GStep) at host step
	// Step. Proc is the workstation; Link/Dir/Route are unset.
	KindCompute Kind = iota
	// KindInject: a pebble value was injected into a directed host link
	// (bandwidth consumed). Proc is the sending position, Link the line
	// link index (Link joins positions Link and Link+1), Dir the travel
	// direction, Route the multicast route carrying it.
	KindInject
	// KindDeliver: a pebble value was delivered into a workstation's
	// knowledge table. Proc is the receiving position.
	KindDeliver
	// KindFault: an injected fault was active for Dur steps starting at
	// Step. Fault says which kind; host faults (slowdown, crash) set Proc
	// with Link = -1, link faults (jitter, outage) set Link with Proc = -1.
	// Synthesised from the fault plan after the run, identically by both
	// engines.
	KindFault
	// KindStall: a derived event (never recorded by the engine): Proc was
	// stalled for Dur consecutive steps starting at Step, attributed to
	// Cause. Produced by Analysis.StallSpans.
	KindStall
	// KindAdapt: the adaptive-replication controller activated the standby
	// replica of column Col on Proc, effective at Step (the step after the
	// epoch boundary that decided it). Appended after the run like
	// KindFault, identically by both engines, so the verify oracle can
	// check every activation against the deterministic placement.
	KindAdapt
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindInject:
		return "inject"
	case KindDeliver:
		return "deliver"
	case KindFault:
		return "fault"
	case KindStall:
		return "stall"
	case KindAdapt:
		return "adapt"
	default:
		return "unknown"
	}
}

// Cause attributes a stalled processor-step to its reason.
type Cause uint8

const (
	CauseNone Cause = iota
	// CauseDependency: the workstation had pebbles left but their
	// dependency values were still being computed upstream or in flight on
	// links (latency-bound waiting).
	CauseDependency
	// CauseBandwidth: a value later delivered to this workstation was
	// sitting in a link injection queue (bandwidth-bound waiting).
	CauseBandwidth
	// CauseIdle: the workstation had no pebbles left to compute.
	CauseIdle
	// CauseFault: the stalled steps overlap an injected fault — the
	// workstation itself was slowed or crashed, or a value it was waiting
	// for sat queued behind a link outage.
	CauseFault
)

func (c Cause) String() string {
	switch c {
	case CauseDependency:
		return "dependency"
	case CauseBandwidth:
		return "bandwidth"
	case CauseIdle:
		return "idle"
	case CauseFault:
		return "fault"
	default:
		return "none"
	}
}

// Event is one structured engine event. Field meaning depends on Kind; see
// the Kind constants. Unused int fields hold -1 (Link, Route) or 0.
type Event struct {
	Step  int64
	Kind  Kind
	Proc  int32
	Col   int32
	GStep int32
	Link  int32
	Dir   int8
	Route int32
	Dur   int64     // KindStall/KindFault: span length in steps
	Cause Cause     // KindStall only
	Fault FaultKind // KindFault only
}

// FaultKind says which injected fault a KindFault event reports.
type FaultKind uint8

const (
	FaultNone FaultKind = iota
	// FaultJitter: the link's injections get extra delay throughout the run
	// (jitter has no start/end, so its span covers the whole run).
	FaultJitter
	// FaultOutage: the link was down for the span; queued messages waited.
	FaultOutage
	// FaultSlow: the host's compute rate was capped for the span.
	FaultSlow
	// FaultCrash: the host crash-stopped at Step; the span runs to the end.
	FaultCrash
	// FaultSpike: the link's injections get heavy-tailed extra delay
	// throughout the run (like jitter, the span covers the whole run).
	FaultSpike
)

func (f FaultKind) String() string {
	switch f {
	case FaultJitter:
		return "jitter"
	case FaultOutage:
		return "outage"
	case FaultSlow:
		return "slow"
	case FaultCrash:
		return "crash"
	case FaultSpike:
		return "spike"
	default:
		return "none"
	}
}

// Buffer holds an event stream in memory for analysis and export. The
// engine records into one buffer per chunk and, after the run, merges them
// into the configured buffer in canonical order, so a buffer need not be
// safe for concurrent use.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty event buffer.
func NewBuffer() *Buffer { return &Buffer{} }

func (b *Buffer) RecordCompute(step int64, proc, col, gstep int32) {
	b.events = append(b.events, Event{
		Step: step, Kind: KindCompute, Proc: proc, Col: col, GStep: gstep,
		Link: -1, Route: -1,
	})
}

func (b *Buffer) RecordInject(step int64, proc, link int32, dir int8, route, col, gstep int32) {
	b.events = append(b.events, Event{
		Step: step, Kind: KindInject, Proc: proc, Col: col, GStep: gstep,
		Link: link, Dir: dir, Route: route,
	})
}

func (b *Buffer) RecordDeliver(step int64, proc, route, col, gstep int32) {
	b.events = append(b.events, Event{
		Step: step, Kind: KindDeliver, Proc: proc, Col: col, GStep: gstep,
		Link: -1, Route: route,
	})
}

// Merge appends the events of parts to the buffer and sorts the appended
// events into canonical order; events already in the buffer keep their
// place.
func (b *Buffer) Merge(parts ...[]Event) {
	start, total := len(b.events), 0
	for _, p := range parts {
		total += len(p)
	}
	b.events = slices.Grow(b.events, total)
	for _, p := range parts {
		b.events = append(b.events, p...)
	}
	Canonicalize(b.events[start:])
}

// Events returns the recorded stream. The slice is owned by the buffer.
func (b *Buffer) Events() []Event { return b.events }

// Len reports the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// less is the canonical total order. No two distinct engine events share a
// full key: a pebble is computed once per holder, injected once per
// (route, gstep, link) and delivered once per (route, gstep, proc).
func less(a, b *Event) bool {
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	if a.Link != b.Link {
		return a.Link < b.Link
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.GStep != b.GStep {
		return a.GStep < b.GStep
	}
	if a.Route != b.Route {
		return a.Route < b.Route
	}
	return a.Fault < b.Fault
}

// Canonicalize sorts events into the canonical stream order.
func Canonicalize(events []Event) {
	sort.Slice(events, func(i, j int) bool { return less(&events[i], &events[j]) })
}

// RunInfo carries the static facts the instruments need alongside the event
// stream. sim.Config.ObsInfo builds it.
type RunInfo struct {
	HostN      int
	HostSteps  int64
	GuestSteps int
	// Delays[i] is the delay of line link (i, i+1).
	Delays []int
	// Bandwidth is every directed link's per-step injection bandwidth B
	// (resolved).
	Bandwidth int
	// ProcPebbles[p] is the total pebbles assigned to position p
	// (owned columns x guest steps).
	ProcPebbles []int64
	// Neighbors returns a guest column's neighbor columns.
	Neighbors func(col int) []int
}
