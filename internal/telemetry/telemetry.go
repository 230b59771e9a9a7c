// Package telemetry is the runtime measurement substrate for the engines: a
// low-overhead metrics registry (per-worker sharded counters, max-gauges and
// fixed-bucket histograms over atomic int64 slots), a periodic sampler that
// captures runtime/metrics and MemStats into a time series, a machine-readable
// RunManifest artifact, and a refreshing TTY status line for long runs.
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled. Every write goes through a *Shard method
//     with a nil-receiver fast path, so an engine built with a nil registry
//     pays one predictable branch per instrumentation site — no interface
//     dispatch, no map lookup, no allocation. The hottest per-pebble paths
//     (waiter-pool churn, calendar scheduling) do not even pay that: they
//     accumulate into plain engine-local int64s and flush into the shard once
//     per run.
//
//  2. Allocation-free when enabled. Metric IDs are dense indexes resolved at
//     registration time; a shard is a few flat []atomic.Int64 slices. Writes
//     are atomic adds/stores so a sampler goroutine (or the live status
//     line) can read a consistent-enough snapshot mid-run without locks.
//
//  3. Shards are cheap and plentiful: one per engine chunk/worker, created
//     via Registry.NewShard. Snapshot() merges them — counters sum, gauges
//     max, histogram buckets sum — which is exactly the cross-worker view
//     the manifest wants; ShardSnapshots() reads each on its own, for
//     per-chunk tables.
//
// Metrics must be registered before shards are created (the engine registers
// its schema once per run, then cuts shards); NewShard panics otherwise
// misuse would silently drop writes.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// CounterID names a monotonically increasing counter (merged by summing).
type CounterID int32

// GaugeID names a high-water-mark gauge (merged by taking the max).
type GaugeID int32

// HistID names a fixed-bucket power-of-two histogram (buckets merged by
// summing).
type HistID int32

// histBuckets is the fixed bucket count: bucket i holds observations v with
// bits.Len64(v) == i, i.e. bucket 0 is v=0, bucket i>=1 covers
// [2^(i-1), 2^i). 48 buckets cover every value the engines observe.
const histBuckets = 48

// Registry owns the metric name space and the shards writing into it.
// Registration is cheap and happens once per run; the hot path never touches
// the registry itself, only its shards.
type Registry struct {
	mu       sync.Mutex
	counters []string
	gauges   []string
	hists    []string
	shards   []*Shard
	sealed   bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers (or re-resolves) a counter by name.
func (r *Registry) Counter(name string) CounterID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return CounterID(r.intern(&r.counters, name, "counter"))
}

// Gauge registers (or re-resolves) a max-gauge by name.
func (r *Registry) Gauge(name string) GaugeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return GaugeID(r.intern(&r.gauges, name, "gauge"))
}

// Histogram registers (or re-resolves) a histogram by name.
func (r *Registry) Histogram(name string) HistID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return HistID(r.intern(&r.hists, name, "histogram"))
}

func (r *Registry) intern(names *[]string, name, kind string) int {
	for i, n := range *names {
		if n == name {
			return i
		}
	}
	if r.sealed {
		panic(fmt.Sprintf("telemetry: %s %q registered after the first shard was created", kind, name))
	}
	*names = append(*names, name)
	return len(*names) - 1
}

// NewShard creates a writer shard sized for every metric registered so far
// and seals the registry against further registration. A nil registry
// returns a nil shard, which every write method tolerates — that is the
// disabled fast path.
func (r *Registry) NewShard(label string) *Shard {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealed = true
	s := &Shard{
		label:    label,
		counters: make([]atomic.Int64, len(r.counters)),
		gauges:   make([]atomic.Int64, len(r.gauges)),
		hists:    make([]histogram, len(r.hists)),
	}
	r.shards = append(r.shards, s)
	return s
}

// histogram is one shard's buckets for one histogram metric.
type histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Shard is a single-owner metrics writer. All slots are atomics, so
// concurrent writes from multiple goroutines are safe (counters merge
// correctly; SetMax is last-writer-wins per shard and shards are normally
// single-writer), and the sampler can read mid-run without locks.
type Shard struct {
	label    string
	counters []atomic.Int64
	gauges   []atomic.Int64
	hists    []histogram
}

// Add increments a counter by delta. Nil shards are a no-op.
func (s *Shard) Add(id CounterID, delta int64) {
	if s == nil {
		return
	}
	s.counters[id].Add(delta)
}

// Inc increments a counter by one. Nil shards are a no-op.
func (s *Shard) Inc(id CounterID) { s.Add(id, 1) }

// SetMax raises a high-water-mark gauge to v if v is larger. Nil shards are
// a no-op. Single-writer per shard: a plain load-compare-store suffices.
func (s *Shard) SetMax(id GaugeID, v int64) {
	if s == nil {
		return
	}
	if v > s.gauges[id].Load() {
		s.gauges[id].Store(v)
	}
}

// Observe records v into a histogram (v < 0 is clamped to 0). Nil shards are
// a no-op.
func (s *Shard) Observe(id HistID, v int64) {
	if s == nil {
		return
	}
	h := &s.hists[id]
	h.count.Add(1)
	if v < 0 {
		v = 0
	}
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
	want := int64(q * float64(h.Count))
	if want >= h.Count {
		want = h.Count - 1
	}
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

// Snapshot is the merged view across every shard: counters summed, gauges
// maxed, histogram buckets summed.
type Snapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Counter reads one merged counter from the snapshot (0 when absent).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Gauge reads one merged gauge from the snapshot (0 when absent).
func (s *Snapshot) Gauge(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Gauges[name]
}

// Snapshot merges every shard. Safe to call while shards are still being
// written: counters and buckets are atomic loads, so the view is a slightly
// stale but internally monotone cut.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.merge(r.shards)
}

// ShardSnapshot is one shard's own view, under the label it was created with.
type ShardSnapshot struct {
	Label string
	*Snapshot
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
		out[i] = ShardSnapshot{Label: s.label, Snapshot: r.merge([]*Shard{s})}
	}
	return out
}

// merge folds shards into one snapshot: counters summed, gauges maxed,
// histogram buckets summed. Callers hold r.mu.
func (r *Registry) merge(shards []*Shard) *Snapshot {
	out := &Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for i, name := range r.counters {
		var v int64
		for _, s := range shards {
			if i < len(s.counters) {
				v += s.counters[i].Load()
			}
		}
		out.Counters[name] = v
	}
	for i, name := range r.gauges {
		var v int64
		for _, s := range shards {
			if i < len(s.gauges) {
				if g := s.gauges[i].Load(); g > v {
					v = g
				}
			}
		}
		out.Gauges[name] = v
	}
	for i, name := range r.hists {
		var h HistSnapshot
		var buckets [histBuckets]int64
		for _, s := range shards {
			if i < len(s.hists) {
				sh := &s.hists[i]
				h.Count += sh.count.Load()
				h.Sum += sh.sum.Load()
				for b := range buckets {
					buckets[b] += sh.buckets[b].Load()
				}
			}
		}
		top := 0
		for b, c := range buckets {
			if c > 0 {
				top = b + 1
			}
		}
		h.Buckets = append([]int64(nil), buckets[:top]...)
		if h.Count > 0 {
			h.Mean = float64(h.Sum) / float64(h.Count)
		}
		h.P50 = h.quantile(0.50)
		h.P99 = h.quantile(0.99)
		out.Hists[name] = h
	}
	return out
}

// Names returns every registered metric name, sorted, prefixed by kind
// ("counter:", "gauge:", "hist:"). Used by tests and the manifest validator.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, n := range r.counters {
		out = append(out, "counter:"+n)
	}
	for _, n := range r.gauges {
		out = append(out, "gauge:"+n)
	}
	for _, n := range r.hists {
		out = append(out, "hist:"+n)
	}
	sort.Strings(out)
	return out
}
