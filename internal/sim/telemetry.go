package sim

import (
	"fmt"

	"latencyhide/internal/telemetry"
)

// This file wires the engines into package telemetry, which carries only
// what depends on the clock or the machine. Every deterministic work figure
// lives in Result (its Work field among them), which collect fills from the
// plain fields chunks, procs and stores already keep. The registry gets:
//
//   - Progress. Every 64 simulated steps (and once at collect) a chunk
//     pushes its pebbles computed since the last push: `-live` and the
//     memory sampler read it while the run is going, and `run`'s chunk
//     table reads it per chunk. With telemetry disabled the per-step cost
//     is a single nil check.
//
//   - Event-grained writes. Boundary flushes, ring-full stalls, worker
//     parks and the wall time spent parked write straight to the shard at
//     the point they happen; they are orders of magnitude rarer than
//     pebbles, and all depend on thread timing.
//
//   - Memory. Peak RSS is read once at collect.
//
// The metric names below are the engine's telemetry schema; the manifest
// validator (telemetry.RunManifest.Validate) and the docs reference them by
// name, so treat renames as schema changes.

// engineMetrics holds the resolved metric IDs for one run's registry.
type engineMetrics struct {
	// counters
	pebblesComputed telemetry.CounterID // progress: pebbles computed so far
	pebblesTotal    telemetry.CounterID // pebbles the run will compute (for progress/ETA)
	boundaryFlushes telemetry.CounterID // coalesced boundary batches shipped
	boundaryMsgs    telemetry.CounterID // messages carried by those batches
	ringFullStalls  telemetry.CounterID // producer retries against a full SPSC ring
	workerParks     telemetry.CounterID // workers parked at their horizon
	workerWakes     telemetry.CounterID // parked workers woken by a neighbor
	workerBlockedNs telemetry.CounterID // wall-clock nanoseconds workers spent parked

	// high-water-mark gauges
	ringOccupancyPeak telemetry.GaugeID // peak SPSC boundary-ring occupancy (batches)
	pubclockLagMax    telemetry.GaugeID // max (local clock - neighbor's published clock)
	rssPeakBytes      telemetry.GaugeID // process peak RSS at collect time (0 if unknown)

	batchSize telemetry.HistID // messages per coalesced boundary batch
}

// registerEngineMetrics registers (or re-resolves) the engine schema on reg.
// Must run before the first shard is cut from reg.
func registerEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	return &engineMetrics{
		pebblesComputed: reg.Counter("pebbles_computed"),
		pebblesTotal:    reg.Counter("pebbles_total"),
		boundaryFlushes: reg.Counter("boundary_flushes"),
		boundaryMsgs:    reg.Counter("boundary_msgs"),
		ringFullStalls:  reg.Counter("ring_full_stalls"),
		workerParks:     reg.Counter("worker_parks"),
		workerWakes:     reg.Counter("worker_wakes"),
		workerBlockedNs: reg.Counter("worker_blocked_ns"),

		ringOccupancyPeak: reg.Gauge("ring_occupancy_peak"),
		pubclockLagMax:    reg.Gauge("pubclock_lag_max"),
		rssPeakBytes:      reg.Gauge("rss_peak_bytes"),

		batchSize: reg.Histogram("boundary_batch_size"),
	}
}

// telFlushInterval is how many simulated steps pass between progress
// pushes (power of two: the step loop masks against it).
const telFlushInterval = 64

// initTelemetry attaches a shard to the chunk when the run carries a
// registry. Called from newChunk after the chunk's work is counted.
func (c *chunk) initTelemetry() {
	if c.cfg.em == nil {
		return
	}
	c.met = c.cfg.em
	c.tel = c.cfg.Telemetry.NewShard(fmt.Sprintf("chunk[%d,%d)", c.lo, c.hi))
	c.tel.Add(c.met.pebblesTotal, c.remaining)
}

// retotal moves the chunk's pebbles_total by d when the work the run will
// do changes mid-run: a standby activation adds its column's pebbles, a
// crash-stop writes off its host's. Progress then ends at the total.
func (c *chunk) retotal(d int64) {
	if c.tel != nil {
		c.tel.Add(c.met.pebblesTotal, d)
	}
}

// flushTelemetry pushes the pebbles the chunk computed since its last push.
func (c *chunk) flushTelemetry() {
	if c.tel == nil {
		return
	}
	var computed int64
	for i := range c.procs {
		computed += c.procs[i].computed
	}
	if d := computed - c.telPebbles; d != 0 {
		c.tel.Add(c.met.pebblesComputed, d)
		c.telPebbles = computed
	}
}
