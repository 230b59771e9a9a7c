package sim

import (
	"fmt"
	"slices"

	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

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
		// Merge the per-chunk buffers in canonical order: the engines
		// produce identical per-step event multisets, so sorting gives a
		// stream that is bit-identical across engines and worker counts.
		parts := make([][]obs.Event, 0, len(chunks)+2)
		for _, c := range chunks {
			parts = append(parts, c.buf.Events())
		}
		if cfg.Faults != nil {
			parts = append(parts, faultEvents(cfg, res.HostSteps))
		}
		if cfg.ast != nil {
			parts = append(parts, cfg.ast.adaptEvents())
		}
		cfg.Recorder.Merge(parts...)
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
	// incomplete and are not checked. Neither are never-activated standbys,
	// which have no work to verify.
	crashed := cfg.Faults.CrashedHosts()
	for _, c := range chunks {
		for i := range c.procs {
			p := &c.procs[i]
			for j := range p.cols {
				oc := &p.cols[j]
				if oc.dormant || slices.Contains(crashed, int(p.pos)) {
					continue
				}
				if v := oc.db.Version(); v != cfg.Guest.Steps {
					return fmt.Errorf("sim: replica of db %d at pos %d has version %d, want %d",
						oc.col, p.pos, v, cfg.Guest.Steps)
				}
				if d, want := oc.db.Digest(), oracle.FinalDigests[oc.col]; d != want {
					return fmt.Errorf("sim: replica of db %d at pos %d has digest %#x, want %#x",
						oc.col, p.pos, d, want)
				}
			}
		}
	}
	return nil
}
