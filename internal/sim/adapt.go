package sim

import (
	"slices"

	"latencyhide/internal/adapt"
	"latencyhide/internal/obs"
)

// Adaptive replication in the engine (see internal/adapt for the policy):
//
// Standby replicas are provisioned at build time and dormant until the
// controller activates them. For every column, adapt.Placement picks up to
// MaxExtra consumer hosts; each gets a dormant ownedCol appended after the
// host's base columns, and the routing table fans the standby column's
// dependency traffic out to that host from step 1 (routeBuilder.build's extra
// destinations). A dormant column never computes, never sends, and holds
// no place in the remaining-work counters — but being a registered
// consumer, it pins its dependencies' values in the knowledge store, which
// is exactly what lets an activation replay the column from guest step 1.
//
// The controller runs at epoch boundaries E, 2E, ...: it harvests the
// per-column stall blame the chunks accumulated during the epoch (see
// depBlame in chunk.go), feeds the dormant candidates to adapt.Decide in
// canonical (host, column) order, and activates the winners effective at
// step E+1 — dormant -> live, ready at guest step 1, T pebbles added to
// the remaining-work counters so the run (and its digest verification)
// waits for the catch-up to finish. Activated standbys still never send:
// they serve their own host's consumers, cutting the supply latency the
// forensics blamed.
//
// Determinism: placement is a pure function of static config; blame is a
// pure function of the (bit-identical) simulation at steps <= E; the
// candidate order is canonical; and both engines run the controller at the
// exact same point — the sequential engine when its clock first passes E,
// the parallel engine in its gate, once every worker waits there with its
// clock at exactly E+1 (see gate in parallel.go). So adaptive runs stay
// bit-identical across engines and worker counts.
type adaptState struct {
	policy    *adapt.Policy
	placement [][]int      // per column: standby hosts, ascending
	extraCols [][]int      // per host: standby columns, ascending
	dead      map[int]bool // crash-stop hosts (excluded from placement)

	// Controller state. Only one goroutine touches it at a time: the
	// sequential engine inline, the parallel engine's filling gate arrival
	// with the gate mutex providing the happens-before edges.
	budget    int
	decisions []adapt.Decision
}

// newAdaptState resolves the policy against the static configuration.
func newAdaptState(cfg *Config, crashed []int) *adaptState {
	pol := cfg.Adapt
	dead := make(map[int]bool, len(crashed))
	for _, h := range crashed {
		dead[h] = true
	}
	pl := pol.Placement(cfg.Assign, cfg.Delays, cfg.Guest.Graph.Neighbors, crashed)
	extra := make([][]int, cfg.hostN())
	for col, hosts := range pl {
		for _, h := range hosts {
			extra[h] = append(extra[h], col) // ascending: outer loop is
		}
	}
	return &adaptState{
		policy: pol, placement: pl, extraCols: extra, dead: dead,
		budget: pol.Budget,
	}
}

// atBoundary runs the controller at epoch boundary E. Every chunk must
// have simulated exactly the steps <= E (clock at E+1), so the harvested
// blame is identical in both engines. Returns the pebbles added to the
// chunks' remaining counters; the parallel caller mirrors them into its
// shared counter.
func (a *adaptState) atBoundary(boundary int64, chunks []*chunk) int64 {
	var cands []adapt.Candidate
	if a.budget > 0 {
		for _, c := range chunks {
			cands = a.harvest(c, boundary, cands)
		}
	}
	decisions, budget := a.policy.Decide(boundary+1, cands, a.budget)
	a.budget = budget
	var added int64
	for _, d := range decisions {
		added += activate(chunks, d)
	}
	a.decisions = append(a.decisions, decisions...)
	// Reset the epoch-local blame and advance every chunk's epoch clock so
	// ongoing blocked spans are clipped at this boundary from now on.
	for _, c := range chunks {
		for pi := range c.procs {
			clear(c.procs[pi].depBlame)
		}
		c.epochStart = boundary
	}
	return added
}

// harvest appends chunk c's dormant-standby candidates for the epoch ending
// at boundary, in (host, column) order: the blame every live column on the
// host accumulated against the standby's column, including the still-open
// blocked spans clipped to the epoch.
func (a *adaptState) harvest(c *chunk, boundary int64, cands []adapt.Candidate) []adapt.Candidate {
	for pi := range c.procs {
		p := &c.procs[pi]
		if p.crashed {
			continue
		}
		if !slices.ContainsFunc(p.cols, func(oc ownedCol) bool { return oc.dormant }) {
			continue
		}
		// blame per dependency column: the closed spans recorded in
		// p.depBlame plus the open spans of still-blocked columns.
		blame := map[int32]int64{}
		for i := range p.cols {
			oc := &p.cols[i]
			if oc.dormant {
				continue
			}
			lo, hi := oc.nbOff, oc.nbOff+oc.nbN
			for j := lo; j < hi; j++ {
				if p.depBlame[j] > 0 {
					blame[p.nbCol[j]] += p.depBlame[j]
				}
			}
			if oc.next <= c.T && oc.missing > 0 {
				from := p.blockedAt[i]
				if from < c.epochStart {
					from = c.epochStart
				}
				if dur := boundary - from; dur > 0 {
					dep := oc.next - 1
					for j := lo; j < hi; j++ {
						if !p.know.has(p.nbDense[j], dep) {
							blame[p.nbCol[j]] += dur
						}
					}
				}
			}
		}
		for i := range p.cols {
			oc := &p.cols[i]
			if !oc.dormant {
				continue
			}
			b := blame[oc.col]
			if b <= 0 {
				continue
			}
			cand := adapt.Candidate{Host: int(p.pos), Col: int(oc.col), Blamed: b}
			if a.policy.RequireFault {
				cand.FaultContext = a.faultCtx(c.cfg, int(p.pos), int(oc.col), c.epochStart, boundary)
			}
			cands = append(cands, cand)
		}
	}
	return cands
}

// faultCtx reports whether the blamed column's supply path to the host
// overlapped an injected fault during the epoch (c.epochStart, boundary]:
// a down, jittery or spiky link between the host and the column's nearest
// surviving holder, or a slowdown on that holder. Pure plan queries, so
// both engines agree.
func (a *adaptState) faultCtx(cfg *Config, host, col int, lo, hi int64) bool {
	plan := cfg.Faults
	if plan == nil {
		return false
	}
	best := -1
	for _, h := range cfg.Assign.Holders[col] {
		if a.dead[h] {
			continue
		}
		if best == -1 || absInt(h-host) < absInt(best-host) {
			best = h
		}
	}
	if best == -1 {
		return false
	}
	for _, iv := range plan.SlowIntervals(best, hi) {
		if iv.Hi > lo {
			return true
		}
	}
	links := len(cfg.Delays)
	loL, hiL := host, best
	if loL > hiL {
		loL, hiL = hiL, loL
	}
	jit := plan.JitterLinks(links)
	spk := plan.SpikeLinks(links)
	for l := loL; l < hiL; l++ {
		if slices.Contains(jit, l) || slices.Contains(spk, l) {
			return true
		}
		for _, iv := range plan.OutageIntervals(l, hi) {
			if iv.Hi > lo {
				return true
			}
		}
	}
	return false
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// activate flips one standby replica live, effective at d.Step: ready at
// guest step 1 (its step-1 dependencies are the initial values prefilled at
// init) with its T pebbles added to the remaining-work counters, so the run
// waits for the catch-up and the digest check covers the new replica.
func activate(chunks []*chunk, d adapt.Decision) int64 {
	for _, c := range chunks {
		if d.Host < c.lo || d.Host >= c.hi {
			continue
		}
		p := c.proc(d.Host)
		if p.crashed {
			return 0
		}
		for i := range p.cols {
			oc := &p.cols[i]
			if !oc.dormant || int(oc.col) != d.Col {
				continue
			}
			oc.dormant = false
			p.ready.push(readyKey(1, int32(i)))
			if !p.active {
				p.active = true
				c.activeList = append(c.activeList, p.pos)
			}
			t := int64(c.T)
			p.remaining += t
			c.remaining += t
			c.retotal(t)
			return t
		}
		return 0
	}
	return 0
}

// adaptEvents renders the controller's decisions as obs events, appended
// after the run like the fault spans.
func (a *adaptState) adaptEvents() []obs.Event {
	events := make([]obs.Event, 0, len(a.decisions))
	for _, d := range a.decisions {
		events = append(events, obs.Event{
			Step: d.Step, Kind: obs.KindAdapt,
			Proc: int32(d.Host), Col: int32(d.Col), Link: -1, Route: -1,
		})
	}
	return events
}
