package sim

import (
	"fmt"

	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// runSequential executes the whole line as a single chunk, fast-forwarding
// over quiet periods (steps where nothing computes, arrives or transmits).
//
// Adaptive runs insert the replication controller at every epoch boundary
// E: the moment the clock first passes E — after step E is fully simulated,
// before step E+1 begins — atBoundary harvests the epoch's stall forensics
// and activates standbys. Fast-forwards are clamped to the next boundary so
// no quiet jump skips one; the parallel engine caps its workers' horizons
// at the same points, which is what keeps adaptive runs bit-identical.
func (a *Arena) runSequential(cfg *Config, rt *routeTable) (*Result, error) {
	c := newChunk(a.shell(0), cfg, rt, 0, cfg.hostN())
	maxSteps := cfg.maxSteps()
	ast := cfg.ast
	var nextB int64
	if ast != nil {
		nextB = int64(ast.policy.Epoch)
	}
	for {
		// Adaptive runs terminate at full quiescence, not at the last pebble:
		// standby-bound traffic still in flight must drain so both engines
		// count the same complete event set (see chunk.quiescent). The check
		// precedes the boundary branch — a run that drains dry before the
		// next boundary never runs the controller there, exactly like the
		// parallel engine's gate, whose verdict ends such a run first.
		if c.remaining == 0 && (ast == nil || c.quiescent()) {
			break
		}
		if ast != nil && c.now > nextB {
			ast.atBoundary(nextB, []*chunk{c})
			nextB += int64(ast.policy.Epoch)
			continue
		}
		if c.now > maxSteps {
			return nil, fmt.Errorf("sim: exceeded step cap %d: %s", maxSteps, frontier(c))
		}
		did := c.step()
		if c.remaining == 0 && ast == nil {
			break
		}
		if did {
			c.now++
			continue
		}
		next, ok := c.nextEvent()
		if !ok {
			if ast == nil {
				return nil, stallError(fmt.Sprintf("at step %d", c.now), c)
			}
			// A quiescent chunk is not necessarily stuck under adaptation: a
			// boundary activation may revive the dataflow. The step cap still
			// bounds genuinely dead runs.
			next = nextB + 1
		}
		if next <= c.now {
			next = c.now + 1
		}
		if ast != nil && next > nextB+1 {
			next = nextB + 1
		}
		c.now = next
	}
	return collect(cfg, []*chunk{c})
}

// stallError reports a deadlocked dataflow with enough context to debug the
// assignment or routing table that caused it; at says where the engine
// noticed.
func stallError(at string, chunks ...*chunk) error {
	return fmt.Errorf("sim: stalled %s: %s", at, frontier(chunks...))
}

// frontier summarises the stuck dataflow frontier of chunks, given in line
// order: the first live column that cannot advance, its missing dependency
// count, and the outstanding work, for stall and step-cap diagnostics.
func frontier(chunks ...*chunk) string {
	var remaining int64
	for _, c := range chunks {
		remaining += c.remaining
	}
	for _, c := range chunks {
		for i := range c.procs {
			p := &c.procs[i]
			if p.crashed {
				continue
			}
			for j := range p.cols {
				oc := &p.cols[j]
				if !oc.dormant && oc.next <= c.T {
					return fmt.Sprintf("pos %d col %d stuck at guest step %d (missing %d deps); %d pebbles remaining",
						p.pos, oc.col, oc.next, oc.missing, remaining)
				}
			}
		}
	}
	return fmt.Sprintf("%d pebbles remaining", remaining)
}

// collect assembles a Result from finished chunks and optionally verifies
// every database replica against the sequential reference executor.
func collect(cfg *Config, chunks []*chunk) (*Result, error) {
	res := &Result{}
	if len(chunks) > 0 && chunks[0].tel != nil {
		// One process-wide reading at collect time; 0 means unknown
		// (non-Linux / restricted proc) and the manifest tolerates that.
		chunks[0].tel.SetMax(chunks[0].met.rssPeakBytes, int64(telemetry.ReadPeakRSS()))
	}
	var dups int64
	w := &res.Work
	w.RouteBytes = chunks[0].rt.bytes()
	for _, c := range chunks {
		c.flushTelemetry() // final progress push; no-op without a registry
		if c.lastComputeStep > res.HostSteps {
			res.HostSteps = c.lastComputeStep
		}
		for i := range c.procs {
			p := &c.procs[i]
			res.PebblesComputed += p.computed
			w.WaiterPoolHits += p.waitHits
			w.WaiterPoolGrows += p.waitGrows
			k := &p.know
			w.KnowRingGrows += k.grows
			w.KnowRingShrinks += k.shrinks
			w.KnowLivePeak = max(w.KnowLivePeak, int64(k.livePeak))
			w.KnowSlotsPeak = max(w.KnowSlotsPeak, int64(k.slotsPeak))
			w.KnowRetireLagPeak = max(w.KnowRetireLagPeak, int64(k.retireLag))
			w.KnowRingBytesPeak += int64(k.slotsPeak) * 16 // bytes per kslot
		}
		w.CalOverflowEvents += c.overflows
		res.Messages += c.messages
		res.MessageHops += c.hops
		res.DeliveredValues += c.delivered
		if q := c.peakQueue(); q > res.MaxQueueDepth {
			res.MaxQueueDepth = q
		}
		dups += c.duplicates
	}
	if dups > 0 {
		return nil, fmt.Errorf("sim: %d duplicate deliveries (routing bug)", dups)
	}
	if cfg.ast != nil {
		res.AdaptActivations = len(cfg.ast.decisions)
	}
	if cfg.Check {
		if err := verify(cfg, chunks); err != nil {
			return nil, err
		}
		res.Checked = true
	}
	if cfg.Recorder != nil {
		// Merge the per-chunk buffers and replay in canonical order: the
		// engines produce identical per-step event multisets, so sorting
		// hands any Recorder a stream that is bit-identical across engines
		// and worker counts.
		var events []obs.Event
		for _, c := range chunks {
			if c.buf != nil {
				events = append(events, c.buf.Events()...)
			}
		}
		if cfg.Faults != nil {
			events = append(events, faultEvents(cfg, res.HostSteps)...)
		}
		if cfg.ast != nil {
			events = append(events, cfg.ast.adaptEvents()...)
		}
		obs.Canonicalize(events)
		obs.Replay(events, cfg.Recorder)
	}
	return res, nil
}

// verify recomputes the guest sequentially and compares every replica's
// final database digest (which is order-sensitive over the full update
// history) against ground truth.
func verify(cfg *Config, chunks []*chunk) error {
	oracle, err := guest.RunDigestParallel(cfg.Guest, 0)
	if err != nil {
		return err
	}
	// Crash-stop hosts freeze mid-run; their replicas are legitimately
	// incomplete and are not checked.
	var dead map[int]bool
	if cfg.Faults != nil {
		if crashed := cfg.Faults.CrashedHosts(); len(crashed) > 0 {
			dead = make(map[int]bool, len(crashed))
			for _, h := range crashed {
				dead[h] = true
			}
		}
	}
	for _, c := range chunks {
		for _, rd := range c.finalDigests() {
			if dead[rd.pos] || rd.dormant {
				continue
			}
			if rd.version != cfg.Guest.Steps {
				return fmt.Errorf("sim: replica of db %d at pos %d has version %d, want %d",
					rd.col, rd.pos, rd.version, cfg.Guest.Steps)
			}
			if rd.digest != oracle.FinalDigests[rd.col] {
				return fmt.Errorf("sim: replica of db %d at pos %d has digest %#x, want %#x",
					rd.col, rd.pos, rd.digest, oracle.FinalDigests[rd.col])
			}
		}
	}
	return nil
}
