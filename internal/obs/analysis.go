package obs

import "sort"

// interval is an inclusive step range [lo, hi].
type interval struct{ lo, hi int64 }

// mergeIntervals sorts and coalesces overlapping/adjacent intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi+1 {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// pathKey identifies one multicast message instance: the pebbles of (route,
// gstep) travel as a single relayed message.
type pathKey struct {
	route int32
	gstep int32
}

// hop is one recorded link crossing of a message, with derived queueing
// facts.
type hop struct {
	link      int32
	dir       int8
	inject    int64 // step the value was injected (left the queue)
	enqueue   int64 // step it entered the queue (producer compute or relay arrival)
	arrivePos int32 // position it reaches after crossing
}

// msgPath is a message's full relay chain in travel order.
type msgPath struct {
	col     int32
	sender  int32
	compute int64 // producer's compute step (first enqueue)
	hops    []hop
}

type procKey struct {
	proc  int32
	col   int32
	gstep int32
}

type delivered struct {
	step  int64
	route int32
}

// Analysis precomputes the per-processor and per-message structures every
// derived instrument shares. Build one per recorded run.
type Analysis struct {
	Info   RunInfo
	events []Event

	computeAt map[procKey]int64     // local compute step of (proc, col, gstep)
	deliverAt map[procKey]delivered // delivery of (col, gstep) into proc
	paths     map[pathKey]*msgPath

	procBusy [][]int64    // sorted distinct compute steps per position
	finish   []int64      // last compute step per position (0 = never)
	queueIv  [][]interval // merged queue-residency intervals of messages later delivered to the position
	// faultIv holds the merged per-position fault exposure: the position's
	// own slowdown/crash spans, plus the outage spans of links that held up
	// messages later delivered to it. Tiling priority: fault > bandwidth >
	// dependency.
	faultIv [][]interval

	spans     []Event // StallSpans' result, once spansDone
	spansDone bool
}

// Analyze builds the shared analysis structures from a canonical event
// stream and its run facts.
func Analyze(events []Event, info RunInfo) *Analysis {
	a := &Analysis{
		Info:      info,
		events:    events,
		computeAt: make(map[procKey]int64),
		deliverAt: make(map[procKey]delivered),
		paths:     make(map[pathKey]*msgPath),
		procBusy:  make([][]int64, info.HostN),
		finish:    make([]int64, info.HostN),
		queueIv:   make([][]interval, info.HostN),
		faultIv:   make([][]interval, info.HostN),
	}
	outageIv := map[int32][]interval{}
	for i := range events {
		e := &events[i]
		if e.Kind == KindFault {
			switch e.Fault {
			case FaultSlow, FaultCrash:
				if e.Proc >= 0 && int(e.Proc) < info.HostN {
					a.faultIv[e.Proc] = append(a.faultIv[e.Proc],
						interval{e.Step, e.Step + e.Dur - 1})
				}
			case FaultOutage:
				outageIv[e.Link] = append(outageIv[e.Link],
					interval{e.Step, e.Step + e.Dur - 1})
			}
			continue
		}
		if e.Proc < 0 || int(e.Proc) >= info.HostN {
			continue
		}
		switch e.Kind {
		case KindCompute:
			a.computeAt[procKey{e.Proc, e.Col, e.GStep}] = e.Step
			a.procBusy[e.Proc] = append(a.procBusy[e.Proc], e.Step)
		case KindInject:
			k := pathKey{e.Route, e.GStep}
			p := a.paths[k]
			if p == nil {
				p = &msgPath{col: e.Col}
				a.paths[k] = p
			}
			arrive := e.Link
			if e.Dir > 0 {
				arrive = e.Link + 1
			}
			p.hops = append(p.hops, hop{link: e.Link, dir: e.Dir, inject: e.Step, arrivePos: arrive})
		case KindDeliver:
			a.deliverAt[procKey{e.Proc, e.Col, e.GStep}] = delivered{step: e.Step, route: e.Route}
		}
	}
	// Busy steps: sort and deduplicate (ComputePerStep > 1 computes several
	// pebbles in one step).
	for p := range a.procBusy {
		b := a.procBusy[p]
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		out := b[:0]
		for _, s := range b {
			if len(out) == 0 || out[len(out)-1] != s {
				out = append(out, s)
			}
		}
		a.procBusy[p] = out
		if len(out) > 0 {
			a.finish[p] = out[len(out)-1]
		}
	}
	// Message paths: order hops by step (relaying is strictly step-ordered),
	// recover the sender and producer compute step, then derive each hop's
	// enqueue step: the producer enqueues at its compute step, relays at the
	// previous hop's arrival step.
	for gk, p := range a.paths {
		sort.Slice(p.hops, func(i, j int) bool { return p.hops[i].inject < p.hops[j].inject })
		h0 := p.hops[0]
		p.sender = h0.link
		if h0.dir < 0 {
			p.sender = h0.link + 1
		}
		p.compute = a.computeAt[procKey{p.sender, p.col, gk.gstep}]
		prev := p.compute
		for i := range p.hops {
			p.hops[i].enqueue = prev
			prev = p.hops[i].inject + int64(a.delay(p.hops[i].link))
		}
	}
	// Per-position queue intervals: for every delivered message, the steps
	// it spent queued on the hops between its producer and this position.
	// Queue steps that overlap an outage on the hop's link are the fault's
	// doing, not bandwidth contention — credit them to the receiver's fault
	// exposure instead.
	for dk, d := range a.deliverAt {
		p := a.paths[pathKey{d.route, dk.gstep}]
		if p == nil {
			continue
		}
		for _, h := range p.hops {
			if h.inject > h.enqueue {
				q := interval{h.enqueue, h.inject - 1}
				a.queueIv[dk.proc] = append(a.queueIv[dk.proc], q)
				for _, ov := range outageIv[h.link] {
					lo, hi := q.lo, q.hi
					if ov.lo > lo {
						lo = ov.lo
					}
					if ov.hi < hi {
						hi = ov.hi
					}
					if lo <= hi {
						a.faultIv[dk.proc] = append(a.faultIv[dk.proc], interval{lo, hi})
					}
				}
			}
			if h.arrivePos == dk.proc {
				break
			}
		}
	}
	for p := range a.queueIv {
		a.queueIv[p] = mergeIntervals(a.queueIv[p])
		a.faultIv[p] = mergeIntervals(a.faultIv[p])
	}
	return a
}

func (a *Analysis) delay(link int32) int {
	if link < 0 || int(link) >= len(a.Info.Delays) {
		return 1
	}
	return a.Info.Delays[link]
}

// splitBy walks [lo, hi] against sorted disjoint intervals, calling hit for
// the covered sub-ranges and miss for the rest (both in step order, only on
// non-empty ranges).
func splitBy(ivs []interval, lo, hi int64, hit, miss func(lo, hi int64)) {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].hi >= lo })
	cur := lo
	for ; i < len(ivs) && ivs[i].lo <= hi; i++ {
		blo, bhi := ivs[i].lo, ivs[i].hi
		if blo < cur {
			blo = cur
		}
		if bhi > hi {
			bhi = hi
		}
		if cur <= blo-1 {
			miss(cur, blo-1)
		}
		hit(blo, bhi)
		cur = bhi + 1
	}
	if cur <= hi {
		miss(cur, hi)
	}
}

// StallSpans derives KindStall events: for every position, the maximal runs
// of steps in [1, last own compute] with work remaining but nothing
// computed, tiled by cause with priority fault > bandwidth > dependency:
// fault-exposed sub-spans first (an injected fault held this position or its
// inbound traffic up), then bandwidth-stalled sub-spans (a value later
// delivered here was sitting in an injection queue), then the
// dependency-stalled remainder. Spans are returned in (step, proc) order.
// They are derived once per Analysis; callers share the returned slice and
// must not modify it.
func (a *Analysis) StallSpans() []Event {
	if !a.spansDone {
		a.spans, a.spansDone = a.stallSpans(), true
	}
	return a.spans
}

func (a *Analysis) stallSpans() []Event {
	var spans []Event
	emit := func(proc int32, lo, hi int64, cause Cause) {
		if hi < lo {
			return
		}
		spans = append(spans, Event{
			Step: lo, Kind: KindStall, Proc: proc, Link: -1, Route: -1,
			Dur: hi - lo + 1, Cause: cause,
		})
	}
	for p := 0; p < a.Info.HostN; p++ {
		busy := a.procBusy[p]
		if len(busy) == 0 {
			continue
		}
		qivs, fivs := a.queueIv[p], a.faultIv[p]
		proc := int32(p)
		splitGap := func(lo, hi int64) {
			splitBy(fivs, lo, hi,
				func(l, h int64) { emit(proc, l, h, CauseFault) },
				func(l, h int64) {
					splitBy(qivs, l, h,
						func(l2, h2 int64) { emit(proc, l2, h2, CauseBandwidth) },
						func(l2, h2 int64) { emit(proc, l2, h2, CauseDependency) })
				})
		}
		prev := int64(0) // step 0 is initial state; work exists from step 1
		for _, b := range busy {
			if b > prev+1 {
				splitGap(prev+1, b-1)
			}
			prev = b
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Step != spans[j].Step {
			return spans[i].Step < spans[j].Step
		}
		return spans[i].Proc < spans[j].Proc
	})
	return spans
}

// StallBreakdown attributes every processor-step of the run to exactly one
// of: busy (computed a pebble), idle (no work left), dependency-stalled,
// bandwidth-stalled or fault-stalled.
// Busy + Idle + Dependency + Bandwidth + Fault == ProcSteps.
// The JSON tags are the run manifest's stalls section.
type StallBreakdown struct {
	ProcSteps  int64 `json:"proc_steps"` // HostN x HostSteps
	Busy       int64 `json:"busy"`
	Idle       int64 `json:"idle"`
	Dependency int64 `json:"dependency"`
	Bandwidth  int64 `json:"bandwidth"`
	Fault      int64 `json:"fault,omitempty"`
}

// Stalled is the total stalled processor-steps.
func (s StallBreakdown) Stalled() int64 { return s.Dependency + s.Bandwidth + s.Fault }

// FaultShare is the fraction of stalled processor-steps attributed to
// injected faults (0 when nothing stalled).
func (s StallBreakdown) FaultShare() float64 {
	if st := s.Stalled(); st > 0 {
		return float64(s.Fault) / float64(st)
	}
	return 0
}

// BandwidthShare is the fraction of stalled processor-steps attributed to
// bandwidth (0 when nothing stalled).
func (s StallBreakdown) BandwidthShare() float64 {
	if st := s.Stalled(); st > 0 {
		return float64(s.Bandwidth) / float64(st)
	}
	return 0
}

// DependencyShare is the fraction of stalled processor-steps attributed to
// dependency waiting (0 when nothing stalled).
func (s StallBreakdown) DependencyShare() float64 {
	if st := s.Stalled(); st > 0 {
		return float64(s.Dependency) / float64(st)
	}
	return 0
}

// Stalls computes the stall-cause breakdown over the whole run.
func (a *Analysis) Stalls() StallBreakdown {
	sb := StallBreakdown{ProcSteps: int64(a.Info.HostN) * a.Info.HostSteps}
	for p := 0; p < a.Info.HostN; p++ {
		sb.Busy += int64(len(a.procBusy[p]))
		sb.Idle += a.Info.HostSteps - a.finish[p]
	}
	for _, s := range a.StallSpans() {
		switch s.Cause {
		case CauseBandwidth:
			sb.Bandwidth += s.Dur
		case CauseFault:
			sb.Fault += s.Dur
		default:
			sb.Dependency += s.Dur
		}
	}
	return sb
}

// Heatmap is the per-processor compute timeline: Counts[p][w] is the number
// of pebbles position p computed during host steps
// [w*Window+1, (w+1)*Window].
type Heatmap struct {
	Window int
	Counts [][]int64
}

// Heatmap bins compute events into windows of the given size (minimum 1).
func (a *Analysis) Heatmap(window int) *Heatmap {
	if window < 1 {
		window = 1
	}
	windows := int((a.Info.HostSteps-1)/int64(window)) + 1
	if a.Info.HostSteps <= 0 {
		windows = 0
	}
	h := &Heatmap{Window: window, Counts: make([][]int64, a.Info.HostN)}
	for p := range h.Counts {
		h.Counts[p] = make([]int64, windows)
	}
	for i := range a.events {
		e := &a.events[i]
		if e.Kind != KindCompute || int(e.Proc) >= a.Info.HostN {
			continue
		}
		w := int((e.Step - 1) / int64(window))
		if w >= 0 && w < windows {
			h.Counts[e.Proc][w]++
		}
	}
	return h
}

// LinkGauge summarises one directed host link over the run.
type LinkGauge struct {
	Link  int  // line link index: joins positions Link and Link+1
	Dir   int8 // +1 rightward, -1 leftward
	Delay int
	BW    int
	// Injects is the number of pebble values injected (bandwidth consumed).
	Injects int64
	// Utilization is Injects / (BW x HostSteps): the fraction of injection
	// capacity used.
	Utilization float64
	// PeakQueue is the deepest injection backlog observed (messages queued
	// at once, counted at enqueue time).
	PeakQueue int
	// QueueSteps is the total steps messages spent waiting in this link's
	// injection queue.
	QueueSteps int64
}

// LinkGauges derives per-directed-link bandwidth and queue gauges, ordered
// by (link, rightward-first).
func (a *Analysis) LinkGauges() []LinkGauge {
	n := len(a.Info.Delays)
	gauges := make([]LinkGauge, 2*n)
	type edge struct {
		step  int64
		delta int
	}
	sweeps := make([][]edge, 2*n)
	idx := func(link int32, dir int8) int {
		i := int(link) * 2
		if dir < 0 {
			i++
		}
		return i
	}
	bw := a.Info.Bandwidth
	for i := 0; i < n; i++ {
		gauges[2*i] = LinkGauge{Link: i, Dir: 1, Delay: a.Info.Delays[i], BW: bw}
		gauges[2*i+1] = LinkGauge{Link: i, Dir: -1, Delay: a.Info.Delays[i], BW: bw}
	}
	for _, p := range a.paths {
		for _, h := range p.hops {
			if h.link < 0 || int(h.link) >= n {
				continue
			}
			g := &gauges[idx(h.link, h.dir)]
			g.Injects++
			g.QueueSteps += h.inject - h.enqueue
			sweeps[idx(h.link, h.dir)] = append(sweeps[idx(h.link, h.dir)],
				edge{step: h.enqueue, delta: 1}, edge{step: h.inject, delta: -1})
		}
	}
	for i := range gauges {
		g := &gauges[i]
		if a.Info.HostSteps > 0 && g.BW > 0 {
			g.Utilization = float64(g.Injects) / (float64(g.BW) * float64(a.Info.HostSteps))
		}
		sw := sweeps[i]
		// +1 before -1 at equal steps: depth is measured at enqueue time,
		// matching the engine's peak-queue accounting.
		sort.Slice(sw, func(x, y int) bool {
			if sw[x].step != sw[y].step {
				return sw[x].step < sw[y].step
			}
			return sw[x].delta > sw[y].delta
		})
		depth, peak := 0, 0
		for _, e := range sw {
			depth += e.delta
			if depth > peak {
				peak = depth
			}
		}
		g.PeakQueue = peak
	}
	return gauges
}
