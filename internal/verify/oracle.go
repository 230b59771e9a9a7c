package verify

import (
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
)

// pebbleKey identifies one pebble at one position.
type pebbleKey struct {
	proc  int32
	col   int32
	gstep int32
}

// slotKey identifies one directed link at one step.
type slotKey struct {
	link int32
	dir  int8
	step int64
}

// routeKey identifies one multicast message instance: the pebbles of
// (route, gstep) travel as a single relayed message.
type routeKey struct {
	route int32
	gstep int32
}

// oracleHop is one recorded link crossing of a message.
type oracleHop struct {
	link int32
	dir  int8
	step int64
}

func hopStart(h oracleHop) int32 {
	if h.dir > 0 {
		return h.link
	}
	return h.link + 1
}

func hopArrive(h oracleHop) int32 {
	if h.dir > 0 {
		return h.link + 1
	}
	return h.link
}

// CheckRun re-derives the engine's conservation laws from a finished run:
// the canonical event stream must agree with the Result's aggregate
// counters, every compute must be legal (holder only, dependencies known,
// crash respected, per-column gsteps a contiguous prefix), every needed
// value must be delivered exactly once to exactly the processors that need
// it, no directed link may inject more than its bandwidth per step (and
// nothing during an outage), relay chains must respect link delays, and the
// stall attribution must tile procs x steps exactly. It returns the broken
// invariants (empty means the run is clean). The events must be the
// canonical stream the run's Recorder received.
func CheckRun(cfg *sim.Config, res *sim.Result, events []obs.Event) []Violation {
	var c collector
	info := cfg.ObsInfo(res)
	plan := cfg.Faults
	T := int32(cfg.Guest.Steps)
	hostN := info.HostN

	perStep := cfg.ComputePerStep
	if perStep < 1 {
		perStep = 1
	}
	var crashed []int
	crashAt := make(map[int32]int64) // crashed host -> first non-computing step
	if plan != nil {
		crashed = plan.CrashedHosts()
		for _, h := range crashed {
			if s, ok := plan.CrashStep(h); ok {
				crashAt[int32(h)] = s
			}
		}
	}

	// Adaptive replication: re-derive the deterministic standby placement
	// and collect the controller's activation decisions (KindAdapt events)
	// up front, then hold the stream to the replication bound — every
	// activation lands on a placed standby, at most MaxExtra per column,
	// at most Budget in total, each effective at the step right after an
	// epoch boundary. Dormant-or-active standbys are route destinations
	// from step 1, and an activated standby computes its column like a
	// holder; the compute and conservation checks below consult these maps.
	adaptive := cfg.Adapt.Enabled()
	standbyAt := make(map[[2]int32]bool) // (proc, col) has a provisioned standby
	activatedAt := make(map[[2]int32]int64)
	var placement [][]int
	if adaptive {
		placement = cfg.Adapt.Placement(cfg.Assign, cfg.Delays, info.Neighbors, crashed)
		for col, hosts := range placement {
			for _, p := range hosts {
				standbyAt[[2]int32{int32(p), int32(col)}] = true
			}
		}
		perCol := make(map[int32]int)
		total := 0
		for i := range events {
			e := &events[i]
			if e.Kind != obs.KindAdapt {
				continue
			}
			total++
			perCol[e.Col]++
			if (e.Step-1)%int64(cfg.Adapt.Epoch) != 0 || e.Step < 2 {
				c.addf("adaptive-replication-bound",
					"activation of (%d on proc %d) at step %d is not an epoch boundary (epoch %d)",
					e.Col, e.Proc, e.Step, cfg.Adapt.Epoch)
			}
			if !standbyAt[[2]int32{e.Proc, e.Col}] {
				c.addf("adaptive-replication-bound",
					"activation of column %d on proc %d outside the deterministic placement", e.Col, e.Proc)
				continue
			}
			if _, dup := activatedAt[[2]int32{e.Proc, e.Col}]; dup {
				c.addf("adaptive-replication-bound",
					"column %d activated twice on proc %d", e.Col, e.Proc)
			}
			activatedAt[[2]int32{e.Proc, e.Col}] = e.Step
		}
		for col, n := range perCol {
			if n > cfg.Adapt.MaxExtra {
				c.addf("adaptive-replication-bound",
					"column %d got %d extra replicas > extra=%d", col, n, cfg.Adapt.MaxExtra)
			}
		}
		if total > cfg.Adapt.Budget {
			c.addf("adaptive-replication-bound",
				"%d activations exceed budget=%d", total, cfg.Adapt.Budget)
		}
	}

	computeAt := make(map[pebbleKey]int64)
	deliverAt := make(map[pebbleKey]int64)
	deliverRoute := make(map[pebbleKey]int32)
	slots := make(map[slotKey]int)
	type procStep struct {
		proc int32
		step int64
	}
	perProcStep := make(map[procStep]int)
	paths := make(map[routeKey][]oracleHop)
	pathCol := make(map[routeKey]int32)
	var computes, injects, delivers int64
	var maxComputeStep int64

	for i := range events {
		e := &events[i]
		switch e.Kind {
		case obs.KindCompute:
			computes++
			if e.Step < 1 {
				c.addf("event-bounds", "compute (%d,%d) at proc %d has step %d < 1", e.Col, e.GStep, e.Proc, e.Step)
			}
			if e.Step > maxComputeStep {
				maxComputeStep = e.Step
			}
			if e.Proc < 0 || int(e.Proc) >= hostN {
				c.addf("event-bounds", "compute at out-of-range proc %d", e.Proc)
				continue
			}
			if e.GStep < 1 || e.GStep > T {
				c.addf("event-bounds", "compute (%d,%d) outside gsteps [1,%d]", e.Col, e.GStep, T)
				continue
			}
			if !cfg.Assign.Holds(int(e.Proc), int(e.Col)) {
				at, active := activatedAt[[2]int32{e.Proc, e.Col}]
				if !active {
					c.addf("holder-only", "proc %d computed column %d it does not hold", e.Proc, e.Col)
				} else if e.Step < at {
					c.addf("holder-only", "proc %d computed standby column %d at step %d before activation at %d",
						e.Proc, e.Col, e.Step, at)
				}
			}
			if cs, ok := crashAt[e.Proc]; ok && e.Step >= cs {
				c.addf("crash-stop", "crashed proc %d computed (%d,%d) at step %d >= crash step %d",
					e.Proc, e.Col, e.GStep, e.Step, cs)
			}
			k := pebbleKey{e.Proc, e.Col, e.GStep}
			if _, dup := computeAt[k]; dup {
				c.addf("conservation", "proc %d computed (%d,%d) twice", e.Proc, e.Col, e.GStep)
			}
			computeAt[k] = e.Step
			perProcStep[procStep{e.Proc, e.Step}]++
		case obs.KindInject:
			injects++
			// Adaptive runs drain standby-bound tail traffic past the last
			// compute step, so only non-adaptive runs bound the stream by
			// HostSteps.
			if e.Step < 1 || (!adaptive && res.HostSteps > 0 && e.Step > res.HostSteps) {
				c.addf("event-bounds", "inject on link %d at step %d outside [1,%d]", e.Link, e.Step, res.HostSteps)
			}
			if e.Link < 0 || int(e.Link) >= len(info.Delays) {
				c.addf("event-bounds", "inject on out-of-range link %d", e.Link)
				continue
			}
			slots[slotKey{e.Link, e.Dir, e.Step}]++
			rk := routeKey{e.Route, e.GStep}
			paths[rk] = append(paths[rk], oracleHop{link: e.Link, dir: e.Dir, step: e.Step})
			if col, ok := pathCol[rk]; ok && col != e.Col {
				c.addf("relay-chain", "route %d gstep %d carries columns %d and %d", e.Route, e.GStep, col, e.Col)
			}
			pathCol[rk] = e.Col
		case obs.KindDeliver:
			delivers++
			if e.Step < 1 || (!adaptive && res.HostSteps > 0 && e.Step > res.HostSteps) {
				c.addf("event-bounds", "deliver (%d,%d) to proc %d at step %d outside [1,%d]",
					e.Col, e.GStep, e.Proc, e.Step, res.HostSteps)
			}
			if e.Proc < 0 || int(e.Proc) >= hostN {
				c.addf("event-bounds", "deliver to out-of-range proc %d", e.Proc)
				continue
			}
			k := pebbleKey{e.Proc, e.Col, e.GStep}
			if _, dup := deliverAt[k]; dup {
				c.addf("conservation", "(%d,%d) delivered to proc %d twice", e.Col, e.GStep, e.Proc)
			}
			deliverAt[k] = e.Step
			deliverRoute[k] = e.Route
		}
	}

	// Aggregate counters: the stream and the Result must describe the same
	// run.
	if computes != res.PebblesComputed {
		c.addf("result-counts", "stream has %d computes, result says %d", computes, res.PebblesComputed)
	}
	if injects != res.MessageHops {
		c.addf("result-counts", "stream has %d injects, result says %d hops", injects, res.MessageHops)
	}
	if delivers != res.DeliveredValues {
		c.addf("result-counts", "stream has %d delivers, result says %d", delivers, res.DeliveredValues)
	}
	if int64(len(paths)) != res.Messages {
		c.addf("result-counts", "stream has %d messages, result says %d", len(paths), res.Messages)
	}
	if res.PebblesComputed > 0 && maxComputeStep != res.HostSteps {
		c.addf("result-counts", "last compute at step %d, result says HostSteps=%d", maxComputeStep, res.HostSteps)
	}

	// Per-column compute completeness: each live holder computes gsteps
	// 1..T exactly, in nondecreasing step order; a crashed holder computes a
	// contiguous prefix. (A holder never receives its own column, so every
	// local row must be locally computed.) An activated standby replays the
	// whole column — activation adds all T pebbles and the run waits for the
	// catch-up — so it owes the same complete contiguous history.
	for col := 0; col < cfg.Assign.Columns; col++ {
		holders := cfg.Assign.Holders[col]
		if adaptive {
			for _, p := range placement[col] {
				if _, ok := activatedAt[[2]int32{int32(p), int32(col)}]; ok {
					holders = append(append([]int(nil), holders...), p)
				}
			}
		}
		for _, p := range holders {
			pk := pebbleKey{proc: int32(p), col: int32(col)}
			_, isCrashed := crashAt[int32(p)]
			prev := int64(0)
			done := int32(0)
			for t := int32(1); t <= T; t++ {
				pk.gstep = t
				step, ok := computeAt[pk]
				if !ok {
					break
				}
				if step < prev {
					c.addf("compute-order", "proc %d computed (%d,%d) at step %d before (%d,%d) at %d",
						p, col, t, step, col, t-1, prev)
				}
				prev, done = step, t
			}
			for t := done + 1; t <= T; t++ {
				pk.gstep = t
				if _, ok := computeAt[pk]; ok {
					c.addf("compute-order", "proc %d computed (%d,%d) but skipped gstep %d", p, col, t, done+1)
					break
				}
			}
			if !isCrashed && done != T {
				c.addf("conservation", "live proc %d computed only %d/%d gsteps of column %d", p, done, T, col)
			}
		}
	}

	// Dependency order: a pebble (col, t>=2) needs every dependency value
	// (dep, t-1) known at the computing processor no later than the compute
	// step — locally computed for held columns (same-step is legal:
	// ComputePerStep > 1 chains within a step), delivered otherwise
	// (same-step is legal: deliveries precede compute within a step).
	for k, step := range computeAt {
		if k.gstep < 2 {
			continue
		}
		deps := append([]int{int(k.col)}, info.Neighbors(int(k.col))...)
		for _, dep := range deps {
			dk := pebbleKey{k.proc, int32(dep), k.gstep - 1}
			// An activated standby computes its own column's history locally,
			// exactly like a base holder — and a standby host that base-holds
			// a consumer of its standby column also keeps receiving it over
			// the unchanged routes, so either source makes the value known.
			_, selfReplay := activatedAt[[2]int32{k.proc, int32(dep)}]
			known := false
			if cfg.Assign.Holds(int(k.proc), dep) || selfReplay {
				at, ok := computeAt[dk]
				known = ok && at <= step
			}
			if !known {
				if at, ok := deliverAt[dk]; ok && at <= step {
					known = true
				}
			}
			if !known {
				c.addf("dependency-order", "proc %d computed (%d,%d) at step %d without known dep (%d,%d)",
					k.proc, k.col, k.gstep, step, dep, k.gstep-1)
			}
		}
	}

	// Conservation: for every column value with a consumer ahead (t < T),
	// exactly the live processors that hold a neighbor column but not the
	// column itself receive it — each exactly once (duplicates were caught
	// above), nobody else, and nothing of gstep T or beyond travels. A
	// provisioned standby counts as a holder of its standby column for the
	// destination fan-out (dormant or active: the routes feed it from step
	// 1 so an activation needs no route rebuild).
	needer := func(p, col int) bool {
		if _, dead := crashAt[int32(p)]; dead || cfg.Assign.Holds(p, col) {
			return false
		}
		for _, nb := range info.Neighbors(col) {
			if cfg.Assign.Holds(p, nb) || standbyAt[[2]int32{int32(p), int32(nb)}] {
				return true
			}
		}
		return false
	}
	for col := 0; col < cfg.Assign.Columns; col++ {
		for p := 0; p < hostN; p++ {
			need := needer(p, col)
			for t := int32(1); t < T; t++ {
				if _, ok := deliverAt[pebbleKey{int32(p), int32(col), t}]; ok != need {
					if need {
						c.addf("conservation", "needer proc %d never received (%d,%d)", p, col, t)
					} else {
						c.addf("conservation", "proc %d received (%d,%d) it does not need", p, col, t)
					}
				}
			}
			if _, ok := deliverAt[pebbleKey{int32(p), int32(col), T}]; ok {
				c.addf("conservation", "last-row value (%d,%d) was delivered to proc %d (no consumer ahead)", col, T, p)
			}
		}
	}

	// Bandwidth: each directed link injects at most B pebbles per step, and
	// nothing while an outage holds the link down.
	for sk, n := range slots {
		if n > info.Bandwidth {
			c.addf("bandwidth", "link %d dir %+d injected %d > B=%d at step %d", sk.link, sk.dir, n, info.Bandwidth, sk.step)
		}
		if plan != nil && plan.LinkDown(int(sk.link), sk.step) {
			c.addf("bandwidth", "link %d dir %+d injected %d at step %d during an outage", sk.link, sk.dir, n, sk.step)
		}
	}

	// Slowdown faults: a host never computes more pebbles in a step than its
	// (possibly fault-capped) rate allows.
	for ps, n := range perProcStep {
		lim := perStep
		if plan != nil {
			lim = plan.ComputeLimit(int(ps.proc), ps.step, perStep)
		}
		if n > lim {
			c.addf("compute-rate", "proc %d computed %d > limit %d pebbles at step %d", ps.proc, n, lim, ps.step)
		}
	}

	// Relay chains: each message starts at a live holder that computed the
	// value no later than its first injection, advances hop by hop (each
	// relay injects no earlier than the previous hop's arrival), and every
	// delivery happens at the hop arrival — exactly inject+delay when no
	// jitter is configured, never earlier otherwise.
	// Heavy-tailed spikes stretch flight times just like jitter does, so
	// exact-arrival checking is off under either.
	jittery := plan != nil && (len(plan.Jitters) > 0 || len(plan.Spikes) > 0)
	for rk, hops := range paths {
		// Injection steps are unique per message (one value crosses one link
		// once), so step order is travel order.
		for i := 1; i < len(hops); i++ {
			for j := i; j > 0 && hops[j-1].step > hops[j].step; j-- {
				hops[j-1], hops[j] = hops[j], hops[j-1]
			}
		}
		col := pathCol[rk]
		sender := hopStart(hops[0])
		if _, dead := crashAt[sender]; dead {
			c.addf("relay-chain", "crashed proc %d is the sender of route %d gstep %d", sender, rk.route, rk.gstep)
		}
		if at, ok := computeAt[pebbleKey{sender, col, rk.gstep}]; !ok || at > hops[0].step {
			c.addf("relay-chain", "route %d gstep %d injected at step %d before sender %d computed (%d,%d)",
				rk.route, rk.gstep, hops[0].step, sender, col, rk.gstep)
		}
		for i := 1; i < len(hops); i++ {
			if hopArrive(hops[i-1]) != hopStart(hops[i]) {
				c.addf("relay-chain", "route %d gstep %d hops from position %d to %d",
					rk.route, rk.gstep, hopArrive(hops[i-1]), hopStart(hops[i]))
			}
			earliest := hops[i-1].step + int64(info.Delays[hops[i-1].link])
			if hops[i].step < earliest {
				c.addf("travel-time", "route %d gstep %d relayed at step %d before arrival at %d",
					rk.route, rk.gstep, hops[i].step, earliest)
			}
		}
	}
	for k, step := range deliverAt {
		rk := routeKey{deliverRoute[k], k.gstep}
		hops, ok := paths[rk]
		if !ok {
			c.addf("relay-chain", "delivery of (%d,%d) to proc %d rode unknown route %d", k.col, k.gstep, k.proc, rk.route)
			continue
		}
		found := false
		for _, h := range hops {
			if hopArrive(h) != k.proc {
				continue
			}
			found = true
			arrive := h.step + int64(info.Delays[h.link])
			if step < arrive {
				c.addf("travel-time", "(%d,%d) delivered to proc %d at step %d before flight ends at %d",
					k.col, k.gstep, k.proc, step, arrive)
			} else if !jittery && step != arrive {
				c.addf("travel-time", "(%d,%d) delivered to proc %d at step %d, expected exactly %d (no jitter)",
					k.col, k.gstep, k.proc, step, arrive)
			}
		}
		if !found {
			c.addf("relay-chain", "no hop of route %d arrives at proc %d for delivery of (%d,%d)",
				rk.route, k.proc, k.col, k.gstep)
		}
	}

	// Stall tiling: the attribution must cover procs x steps exactly.
	// Adaptive runs are exempt: activations add pebbles mid-run and the
	// drain tail delivers past the last compute step, both of which the
	// static per-proc pebble accounting underneath the tiling cannot see.
	if !adaptive {
		sb := obs.Analyze(events, info).Stalls()
		if sum := sb.Busy + sb.Idle + sb.Dependency + sb.Bandwidth + sb.Fault; sum != sb.ProcSteps {
			c.addf("stall-tiling", "busy %d + idle %d + dep %d + bw %d + fault %d = %d != procs x steps %d",
				sb.Busy, sb.Idle, sb.Dependency, sb.Bandwidth, sb.Fault, sum, sb.ProcSteps)
		}
	}

	return c.result()
}
