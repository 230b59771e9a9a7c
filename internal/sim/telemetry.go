package sim

import (
	"fmt"

	"latencyhide/internal/telemetry"
)

// This file wires the engines into package telemetry. The contract with the
// hot path is layered by cost:
//
//   - Always-on plain counters. The cheapest signals (waiter-pool reuse,
//     calendar due/overflow totals, depth peaks) are plain int64 fields on
//     the proc / bucketCal they describe, maintained unconditionally — an
//     increment or compare on state the hot path already touches.
//
//   - Periodic flush. Every 64 simulated steps (and once at collect) a chunk
//     pushes the accumulated deltas into its telemetry shard and samples
//     peaks: ready heaps and injection queues by scanning, the dense
//     knowledge stores by reading the O(1) occupancy counters they maintain
//     inline (dense.go). With telemetry disabled the per-step cost is a
//     single nil check.
//
//   - Event-grained writes. Rare-but-interesting events (boundary flushes,
//     worker parks and the wall time spent parked) write straight to the
//     shard at the point they happen; they are orders of magnitude rarer
//     than pebbles.
//
// The metric names below are the engine's telemetry schema; the manifest
// validator (telemetry.RunManifest.Validate) and the docs reference them by
// name, so treat renames as schema changes.

// engineMetrics holds the resolved metric IDs for one run's registry.
type engineMetrics struct {
	// counters
	pebblesComputed   telemetry.CounterID // pebbles computed (includes redundant replicas)
	pebblesTotal      telemetry.CounterID // pebbles the run will compute (for progress/ETA)
	calDueEvents      telemetry.CounterID // calendar keys popped by takeDue
	calOverflowEvents telemetry.CounterID // arrivals beyond the ring span (heap path)
	messagesInjected  telemetry.CounterID // pebble transmissions entering link queues
	linkHops          telemetry.CounterID // individual link crossings
	deliveries        telemetry.CounterID // values delivered to a knowledge table
	waiterPoolHits    telemetry.CounterID // waiter nodes recycled from the freelist
	waiterPoolGrows   telemetry.CounterID // waiter nodes that grew the pool
	knowRingGrows     telemetry.CounterID // dense knowledge rings that outgrew their window
	knowRingShrinks   telemetry.CounterID // dense knowledge rings shrunk back after a spike
	boundaryFlushes   telemetry.CounterID // coalesced boundary batches shipped
	boundaryMsgs      telemetry.CounterID // messages carried by those batches
	ringFullStalls    telemetry.CounterID // producer retries against a full SPSC ring
	workerParks       telemetry.CounterID // workers parked at their horizon
	workerWakes       telemetry.CounterID // parked workers woken by a neighbor
	workerBlockedNs   telemetry.CounterID // wall-clock nanoseconds workers spent parked

	// high-water-mark gauges
	calRingDepthPeak  telemetry.GaugeID // peak pending calendar entries (ring + overflow)
	calOverflowPeak   telemetry.GaugeID // peak overflow-heap size
	readyHeapPeak     telemetry.GaugeID // deepest per-proc ready heap sampled
	txQueuePeak       telemetry.GaugeID // deepest link injection queue
	knowLivePeak      telemetry.GaugeID // peak live knowledge slots on any workstation
	knowSlotsPeak     telemetry.GaugeID // peak allocated knowledge ring slots on any workstation
	knowRetireLagPeak telemetry.GaugeID // peak unretired steps behind a column's frontier
	ringOccupancyPeak telemetry.GaugeID // peak SPSC boundary-ring occupancy (batches)
	pubclockLagMax    telemetry.GaugeID // max (local clock - neighbor's published clock)

	// memory-budget gauges (fleet sweeps read these to budget per shard)
	routeBytes        telemetry.GaugeID // resident footprint of the shared route table
	knowRingBytesPeak telemetry.GaugeID // peak knowledge-ring bytes across a chunk's stores
	rssPeakBytes      telemetry.GaugeID // process peak RSS at collect time (0 if unknown)

	// histograms
	duePerStep telemetry.HistID // calendar keys due per busy step
	batchSize  telemetry.HistID // messages per coalesced boundary batch
}

// registerEngineMetrics registers (or re-resolves) the engine schema on reg.
// Must run before the first shard is cut from reg.
func registerEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		pebblesComputed:   reg.Counter("pebbles_computed"),
		pebblesTotal:      reg.Counter("pebbles_total"),
		calDueEvents:      reg.Counter("cal_due_events"),
		calOverflowEvents: reg.Counter("cal_overflow_events"),
		messagesInjected:  reg.Counter("messages_injected"),
		linkHops:          reg.Counter("link_hops"),
		deliveries:        reg.Counter("deliveries"),
		waiterPoolHits:    reg.Counter("waiter_pool_hits"),
		waiterPoolGrows:   reg.Counter("waiter_pool_grows"),
		knowRingGrows:     reg.Counter("know_ring_grows"),
		knowRingShrinks:   reg.Counter("know_ring_shrinks"),
		boundaryFlushes:   reg.Counter("boundary_flushes"),
		boundaryMsgs:      reg.Counter("boundary_msgs"),
		ringFullStalls:    reg.Counter("ring_full_stalls"),
		workerParks:       reg.Counter("worker_parks"),
		workerWakes:       reg.Counter("worker_wakes"),
		workerBlockedNs:   reg.Counter("worker_blocked_ns"),

		calRingDepthPeak:  reg.Gauge("cal_ring_depth_peak"),
		calOverflowPeak:   reg.Gauge("cal_overflow_peak"),
		readyHeapPeak:     reg.Gauge("ready_heap_peak"),
		txQueuePeak:       reg.Gauge("tx_queue_peak"),
		knowLivePeak:      reg.Gauge("know_live_peak"),
		knowSlotsPeak:     reg.Gauge("know_slots_peak"),
		knowRetireLagPeak: reg.Gauge("know_retire_lag_peak"),
		ringOccupancyPeak: reg.Gauge("ring_occupancy_peak"),
		pubclockLagMax:    reg.Gauge("pubclock_lag_max"),

		routeBytes:        reg.Gauge("route_bytes"),
		knowRingBytesPeak: reg.Gauge("know_ring_bytes_peak"),
		rssPeakBytes:      reg.Gauge("rss_peak_bytes"),

		duePerStep: reg.Histogram("cal_due_per_step"),
		batchSize:  reg.Histogram("boundary_batch_size"),
	}
}

// telFlushInterval is how many simulated steps pass between shard flushes
// (power of two: the step loop masks against it).
const telFlushInterval = 64

// initTelemetry attaches a shard to the chunk when the run carries a
// registry. Called from newChunk after the chunk's work is counted.
func (c *chunk) initTelemetry() {
	if c.cfg.em == nil {
		return
	}
	c.met = c.cfg.em
	c.tel = c.cfg.Telemetry.NewShard(fmt.Sprintf("chunk[%d,%d)", c.lo, c.hi))
	c.telInitWork = c.remaining
	c.tel.Add(c.met.pebblesTotal, c.remaining)
	// The route table is shared across chunks; every chunk reports the same
	// figure and the gauge keeps the max, so it never double-counts.
	c.tel.SetMax(c.met.routeBytes, c.rt.bytes())
}

// flushTelemetry pushes the chunk's plain accumulators into its shard:
// counter deltas since the last flush, peaks that need a scan (ready heaps,
// injection queues), and the dense knowledge stores' inline occupancy
// counters, so the per-flush cost stays O(procs).
func (c *chunk) flushTelemetry() {
	if c.tel == nil {
		return
	}
	flush := func(id telemetry.CounterID, cur int64, last *int64) {
		if d := cur - *last; d != 0 {
			c.tel.Add(id, d)
			*last = cur
		}
	}
	flush(c.met.pebblesComputed, c.telInitWork-c.remaining, &c.telPebbles)
	flush(c.met.calDueEvents, c.cal.dueTotal, &c.telDue)
	flush(c.met.calOverflowEvents, c.cal.overflowTotal, &c.telOverflow)
	flush(c.met.messagesInjected, c.messages, &c.telMsgs)
	flush(c.met.linkHops, c.hops, &c.telHops)
	flush(c.met.deliveries, c.delivered, &c.telDeliv)

	var hits, grows, readyPeak int64
	var knowGrows, knowShrinks, livePeak, slotsPeak, ringBytesPeak, lagPeak int64
	for i := range c.procs {
		p := &c.procs[i]
		hits += p.waitHits
		grows += p.waitGrows
		if n := int64(len(p.ready)); n > readyPeak {
			readyPeak = n
		}
		// Dense-store occupancy gauges are O(1) per proc: the store
		// maintains them inline, unlike the old rotating u64map probe scan.
		knowGrows += p.know.grows
		knowShrinks += p.know.shrinks
		if v := int64(p.know.livePeak); v > livePeak {
			livePeak = v
		}
		if v := int64(p.know.slotsPeak); v > slotsPeak {
			slotsPeak = v
		}
		ringBytesPeak += int64(p.know.slotsPeak) * 16
		if v := int64(p.know.retireLag); v > lagPeak {
			lagPeak = v
		}
	}
	flush(c.met.waiterPoolHits, hits, &c.telWaitHits)
	flush(c.met.waiterPoolGrows, grows, &c.telWaitGrows)
	flush(c.met.knowRingGrows, knowGrows, &c.telKnowGrows)
	flush(c.met.knowRingShrinks, knowShrinks, &c.telKnowShrinks)

	c.tel.SetMax(c.met.calRingDepthPeak, int64(c.cal.depthPeak))
	c.tel.SetMax(c.met.calOverflowPeak, int64(c.cal.overflowPeak))
	c.tel.SetMax(c.met.readyHeapPeak, readyPeak)
	c.tel.SetMax(c.met.txQueuePeak, int64(c.peakQueue()))
	c.tel.SetMax(c.met.knowLivePeak, livePeak)
	c.tel.SetMax(c.met.knowSlotsPeak, slotsPeak)
	c.tel.SetMax(c.met.knowRetireLagPeak, lagPeak)
	// Sum of per-store peaks (16 bytes per kslot): an upper bound on the
	// chunk's true simultaneous ring footprint, cheap and O(procs).
	c.tel.SetMax(c.met.knowRingBytesPeak, ringBytesPeak)
}
