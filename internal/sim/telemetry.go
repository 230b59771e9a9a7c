package sim

// This file wires the engine into package telemetry, which carries only
// what depends on the clock or the machine. Every deterministic work figure
// lives in Result (its Work field among them), which collect fills from the
// plain fields chunks, procs and stores keep. Each chunk's telemetry.Shard
// gets:
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

// telFlushInterval is how many simulated steps pass between progress
// pushes (power of two: the step loop masks against it).
const telFlushInterval = 64

// initTelemetry attaches a shard to the chunk when the run carries a
// registry. Called from newChunk after the chunk's work is counted.
func (c *chunk) initTelemetry() {
	c.tel = c.cfg.Telemetry.NewShard(c.lo, c.hi) // nil without a registry
	c.retotal(c.remaining)
}

// retotal moves the chunk's pebbles_total by d when the work the run will
// do changes mid-run: a standby activation adds its column's pebbles, a
// crash-stop writes off its host's. Progress then ends at the total.
func (c *chunk) retotal(d int64) {
	if c.tel != nil {
		c.tel.PebblesTotal.Add(d)
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
		c.tel.PebblesComputed.Add(d)
		c.telPebbles = computed
	}
}
