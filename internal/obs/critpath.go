package obs

// CritNode is one compute on the critical path.
type CritNode struct {
	Proc  int32
	Col   int32
	GStep int32
	Step  int64
}

// CriticalPath is the longest compute -> message -> compute dependency chain
// ending at the run's last compute, with its length decomposed into where
// the steps went. Compute + Transit + Queue + Wait == Length always, so the
// shares tile to 1. The JSON tags are the run manifest's critical_path
// section.
type CriticalPath struct {
	// Nodes is the chain in execution order (guest step 1 first).
	Nodes []CritNode `json:"-"`
	// Length is the host step of the chain's last compute (== the run
	// length when the chain ends at the final compute).
	Length int64 `json:"length"`
	// Compute: steps spent computing chain pebbles (one per node).
	Compute int64 `json:"compute"`
	// Transit: steps chain values spent crossing links (pure wire delay).
	Transit int64 `json:"transit"`
	// Queue: steps chain values spent waiting in link injection queues
	// (bandwidth contention).
	Queue int64 `json:"queue"`
	// Wait: remaining steps — a chain value was available but its consumer
	// computed later (local scheduling: compute-per-step contention or the
	// greedy order picking other pebbles first).
	Wait int64 `json:"wait"`
}

// share returns x/Length, or 0 for an empty path.
func (cp *CriticalPath) share(x int64) float64 {
	if cp.Length <= 0 {
		return 0
	}
	return float64(x) / float64(cp.Length)
}

// ComputeShare is the fraction of the path spent computing.
func (cp *CriticalPath) ComputeShare() float64 { return cp.share(cp.Compute) }

// TransitShare is the fraction spent on wire delay.
func (cp *CriticalPath) TransitShare() float64 { return cp.share(cp.Transit) }

// QueueShare is the fraction spent in injection queues.
func (cp *CriticalPath) QueueShare() float64 { return cp.share(cp.Queue) }

// WaitShare is the fraction spent on local scheduling waits.
func (cp *CriticalPath) WaitShare() float64 { return cp.share(cp.Wait) }

// LatencyBoundShare is the fraction explained by computing plus wire delay
// alone — when this is close to 1 the run is latency-bound (the d·T term of
// the Theorem 2 bound binds); a large QueueShare means it is
// bandwidth-bound (the ceil(P/B) term binds).
func (cp *CriticalPath) LatencyBoundShare() float64 {
	return cp.share(cp.Compute + cp.Transit)
}

// CriticalPath extracts the critical chain from the recorded run. It walks
// backward from the canonical last compute event: at each node (col, gstep)
// it finds the dependency (the column itself or a guest neighbor at
// gstep-1) whose value became available at this workstation latest —
// following local computes and recorded deliveries — and charges the gap
// between the two computes to transit, queueing and waiting using the
// reconstructed message path.
func (a *Analysis) CriticalPath() *CriticalPath {
	cp := &CriticalPath{}
	// Canonical chain end: the last compute event in stream order.
	var end *Event
	for i := range a.events {
		e := &a.events[i]
		if e.Kind != KindCompute {
			continue
		}
		if end == nil || end.Step < e.Step || (end.Step == e.Step && less(e, end)) {
			end = e
		}
	}
	if end == nil {
		return cp
	}
	cp.Length = end.Step
	proc, col, gstep, step := end.Proc, end.Col, end.GStep, end.Step
	var rev []CritNode
	for {
		rev = append(rev, CritNode{Proc: proc, Col: col, GStep: gstep, Step: step})
		if gstep <= 1 {
			// First guest step: inputs are initial state, available at step
			// 0; anything before this compute is scheduling wait.
			cp.Compute++
			cp.Wait += step - 1
			break
		}
		// Pick the latest-available dependency value at this workstation.
		// Ties go to the first candidate (own column, then ascending
		// neighbors), keeping the walk deterministic.
		deps := append([]int{int(col)}, a.Info.Neighbors(int(col))...)
		var (
			bestCol   int32 = -1
			bestStep  int64 = -1
			bestLocal bool
		)
		for _, d := range deps {
			k := procKey{proc, int32(d), gstep - 1}
			if s, ok := a.computeAt[k]; ok {
				if s > bestStep {
					bestCol, bestStep, bestLocal = int32(d), s, true
				}
			} else if dv, ok := a.deliverAt[k]; ok {
				if dv.step > bestStep {
					bestCol, bestStep, bestLocal = int32(d), dv.step, false
				}
			}
		}
		if bestCol < 0 {
			// Stream is truncated or inconsistent; stop rather than guess.
			cp.Compute++
			cp.Wait += step - 1
			break
		}
		if bestLocal {
			// Producer computed here: the whole gap minus our compute step
			// is local scheduling wait.
			cp.Compute++
			cp.Wait += step - bestStep - 1
			col, gstep, step = bestCol, gstep-1, bestStep
			continue
		}
		// Value arrived by message: charge wire delay and queueing along the
		// reconstructed path prefix that reaches this workstation, floor the
		// allocations so the leg sums to the gap exactly.
		dv := a.deliverAt[procKey{proc, bestCol, gstep - 1}]
		path := a.paths[pathKey{dv.route, gstep - 1}]
		var transit, queue int64
		srcProc, srcStep := proc, dv.step
		if path != nil {
			srcProc, srcStep = path.sender, path.compute
			for _, h := range path.hops {
				transit += int64(a.delay(h.link))
				if h.inject > h.enqueue {
					queue += h.inject - h.enqueue
				}
				if h.arrivePos == proc {
					break
				}
			}
		}
		gap := step - srcStep // >= 1: value computed at srcStep, consumed at step
		budget := gap - 1     // one step is this node's compute
		if transit > budget {
			transit = budget
		}
		if queue > budget-transit {
			queue = budget - transit
		}
		cp.Compute++
		cp.Transit += transit
		cp.Queue += queue
		cp.Wait += budget - transit - queue
		proc, col, gstep, step = srcProc, bestCol, gstep-1, srcStep
	}
	// Reverse into execution order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	cp.Nodes = rev
	return cp
}
