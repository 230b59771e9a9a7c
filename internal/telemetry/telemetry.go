// Package telemetry is the runtime measurement substrate for the engines:
// the engine's wall-clock telemetry record (per-chunk shards of typed
// atomic counters, max-gauges and one fixed-bucket histogram), a periodic
// sampler that captures runtime/metrics and MemStats into a time series, a
// machine-readable RunManifest artifact, and a refreshing TTY status line
// for long runs.
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled. An engine run without a registry holds
//     no shard and pays one predictable branch per instrumentation site.
//     The hottest per-pebble paths do not even pay that: progress is pushed
//     into the shard every 64 simulated steps.
//
//  2. Allocation-free when enabled. Every metric is a named atomic field of
//     Shard, so a write is one atomic add or store, and a sampler goroutine
//     (or the live status line) can read a consistent-enough snapshot
//     mid-run without locks.
//
//  3. One shard per engine chunk, created by Registry.NewShard with the
//     chunk's host range. Snapshot merges them (counters sum, gauges max,
//     histogram buckets sum), which is the cross-worker view the manifest
//     wants; ShardSnapshots reads each on its own, for per-chunk tables.
//
// Every figure is named once, by the JSON tag of its Snapshot field; the
// manifest's metrics section is a Snapshot, so renaming a tag is a schema
// change.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// histBuckets is the fixed bucket count: bucket i holds observations v with
// bits.Len64(v) == i, i.e. bucket 0 is v=0, bucket i>=1 covers
// [2^(i-1), 2^i). 48 buckets cover every value the engines observe.
const histBuckets = 48

// Registry holds the shards of one run. Only shard creation and snapshots
// take its lock; the engine writes to its shards directly.
type Registry struct {
	mu     sync.Mutex
	shards []*Shard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewShard creates the shard of the engine chunk that owns hosts [lo, hi).
// A nil registry returns a nil shard: telemetry is off.
func (r *Registry) NewShard(lo, hi int) *Shard {
	if r == nil {
		return nil
	}
	s := &Shard{Lo: lo, Hi: hi}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// Shard is one engine chunk's telemetry, for hosts [Lo, Hi). Every metric
// is atomic, so the sampler can read mid-run without locks; its JSON name
// is the tag of the matching Snapshot field.
type Shard struct {
	Lo, Hi int

	PebblesComputed atomic.Int64 // progress: pebbles computed so far
	PebblesTotal    atomic.Int64 // pebbles the run will compute (for progress/ETA)
	BoundaryFlushes atomic.Int64 // coalesced boundary batches shipped
	BoundaryMsgs    atomic.Int64 // messages carried by those batches
	RingFullStalls  atomic.Int64 // producer retries against a full SPSC ring
	WorkerParks     atomic.Int64 // workers parked at their horizon
	WorkerWakes     atomic.Int64 // parked workers woken by a neighbor
	WorkerBlockedNs atomic.Int64 // wall-clock nanoseconds workers spent parked

	RingOccupancyPeak MaxGauge // peak SPSC boundary-ring occupancy (batches)
	PubclockLagMax    MaxGauge // max (local clock - neighbor's published clock)

	BoundaryBatchSize Histogram // messages per coalesced boundary batch
}

// MaxGauge is a high-water mark. Single writer per shard: a plain
// load-compare-store suffices.
type MaxGauge struct{ v atomic.Int64 }

// SetMax raises the gauge to v if v is larger.
func (g *MaxGauge) SetMax(v int64) {
	if v > g.v.Load() {
		g.v.Store(v)
	}
}

// Load reads the gauge.
func (g *MaxGauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket power-of-two histogram.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v (v < 0 is clamped to 0).
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	v = max(v, 0)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistSnapshot is one merged histogram: power-of-two buckets plus count and
// sum (Buckets[i] counts observations v with bits.Len64(v) == i; trailing
// zero buckets are trimmed).
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	P50     int64   `json:"p50"`
	P99     int64   `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// quantile returns an upper bound for the q-quantile from the buckets (the
// top of the bucket the quantile falls in).
func (h *HistSnapshot) quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	want := min(int64(q*float64(h.Count)), h.Count-1)
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > want {
			if i == 0 {
				return 0
			}
			return 1<<i - 1
		}
	}
	return 0
}

// Counters are the engine's counters, summed over shards.
type Counters struct {
	PebblesComputed int64 `json:"pebbles_computed"`
	PebblesTotal    int64 `json:"pebbles_total"`
	BoundaryFlushes int64 `json:"boundary_flushes"`
	BoundaryMsgs    int64 `json:"boundary_msgs"`
	RingFullStalls  int64 `json:"ring_full_stalls"`
	WorkerParks     int64 `json:"worker_parks"`
	WorkerWakes     int64 `json:"worker_wakes"`
	WorkerBlockedNs int64 `json:"worker_blocked_ns"`
}

// Gauges are the engine's high-water marks, maxed over shards.
type Gauges struct {
	RingOccupancyPeak int64 `json:"ring_occupancy_peak"`
	PubclockLagMax    int64 `json:"pubclock_lag_max"`
}

// Histograms are the engine's histograms, buckets summed over shards.
type Histograms struct {
	BoundaryBatchSize HistSnapshot `json:"boundary_batch_size"`
}

// Snapshot is a merged view of one or more shards.
type Snapshot struct {
	Counters   Counters   `json:"counters"`
	Gauges     Gauges     `json:"gauges"`
	Histograms Histograms `json:"histograms"`
}

// Snapshot merges every shard. Safe to call while shards are still being
// written: every read is an atomic load, so the view is a slightly stale
// but internally monotone cut. A nil registry has an all-zero snapshot.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := merge(r.shards...)
	return &s
}

// ShardSnapshot is one shard's own view, with the chunk's host range.
type ShardSnapshot struct {
	Lo, Hi int
	Snapshot
}

// ShardSnapshots reads every shard on its own, in creation order. Like
// Snapshot it is safe while the shards are still being written.
func (r *Registry) ShardSnapshots() []ShardSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardSnapshot, len(r.shards))
	for i, s := range r.shards {
		out[i] = ShardSnapshot{Lo: s.Lo, Hi: s.Hi, Snapshot: merge(s)}
	}
	return out
}

// merge folds shards into one snapshot: counters summed, gauges maxed,
// histogram buckets summed.
func merge(shards ...*Shard) Snapshot {
	var out Snapshot
	c, g := &out.Counters, &out.Gauges
	h := &out.Histograms.BoundaryBatchSize
	var buckets [histBuckets]int64
	for _, s := range shards {
		c.PebblesComputed += s.PebblesComputed.Load()
		c.PebblesTotal += s.PebblesTotal.Load()
		c.BoundaryFlushes += s.BoundaryFlushes.Load()
		c.BoundaryMsgs += s.BoundaryMsgs.Load()
		c.RingFullStalls += s.RingFullStalls.Load()
		c.WorkerParks += s.WorkerParks.Load()
		c.WorkerWakes += s.WorkerWakes.Load()
		c.WorkerBlockedNs += s.WorkerBlockedNs.Load()
		g.RingOccupancyPeak = max(g.RingOccupancyPeak, s.RingOccupancyPeak.Load())
		g.PubclockLagMax = max(g.PubclockLagMax, s.PubclockLagMax.Load())
		sh := &s.BoundaryBatchSize
		h.Count += sh.count.Load()
		h.Sum += sh.sum.Load()
		for b := range buckets {
			buckets[b] += sh.buckets[b].Load()
		}
	}
	top := 0
	for b, n := range buckets {
		if n > 0 {
			top = b + 1
		}
	}
	h.Buckets = append([]int64(nil), buckets[:top]...)
	if h.Count > 0 {
		h.Mean = float64(h.Sum) / float64(h.Count)
	}
	h.P50 = h.quantile(0.50)
	h.P99 = h.quantile(0.99)
	return out
}
