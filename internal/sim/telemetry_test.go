package sim

import (
	"encoding/json"
	"slices"
	"testing"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/telemetry"
)

// delaysOf builds an n-host line with the given uniform delay.
func delaysOf(n, d int) []int {
	out := make([]int, n-1)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestTelemetrySequentialAgreesWithResult(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(8, 32)
	reg := telemetry.NewRegistry()
	res, err := Run(Config{
		Delays:    delaysOf(8, 2),
		Guest:     guest.Spec{Graph: guest.NewLinearArray(32), Steps: 24, Seed: 5},
		Assign:    a,
		Check:     true,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// The progress push must end at the Result's count: telemetry is a
	// view, not a second accounting. A complete run did all its work.
	if c := snap.Counters; c.PebblesComputed != res.PebblesComputed || c.PebblesTotal != res.PebblesComputed {
		t.Errorf("pebbles_computed %d, pebbles_total %d, want both %d",
			c.PebblesComputed, c.PebblesTotal, res.PebblesComputed)
	}
	w := res.Work
	if w.WaiterPoolHits+w.WaiterPoolGrows <= 0 {
		t.Error("waiter pool not tracked")
	}
	if w.KnowLivePeak <= 0 || w.KnowSlotsPeak <= 0 || w.KnowRingBytesPeak <= 0 {
		t.Errorf("knowledge-ring figures empty: %+v", w)
	}
	// Retirement always trails the frontier by at least one step on a line.
	if w.KnowRetireLagPeak < 1 {
		t.Errorf("know_retire_lag_peak = %d, want >= 1", w.KnowRetireLagPeak)
	}
	if w.RouteBytes <= 0 {
		t.Error("route_bytes not reported")
	}
	// One chunk has no boundary, so it reports no boundary metrics.
	if snap.Gauges.RingOccupancyPeak != 0 || snap.Counters.BoundaryFlushes != 0 {
		t.Error("sequential run reported boundary telemetry")
	}
}

// Progress ends at the total on runs whose work changes mid-run: standby
// activations add pebbles, and a crash-stop writes its host's off.
func TestProgressEndsAtTotal(t *testing.T) {
	adaptive := adaptiveConfig(t, 16, 32)
	adaptive.Faults = &fault.Plan{Seed: 7, Churns: []fault.Churn{{Link: -1, Up: 12, Down: 4}}}
	adaptive.Adapt = &adapt.Policy{Epoch: 16, Threshold: 0.25, MaxExtra: 1, Budget: 8}
	crash := adaptiveConfig(t, 8, 8)
	crash.Faults = &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: 3, Step: 5}}}
	for name, cfg := range map[string]Config{"adaptive": adaptive, "crash": crash} {
		for _, workers := range []int{0, 2} {
			reg := telemetry.NewRegistry()
			cfg.Telemetry, cfg.Workers = reg, workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			c := reg.Snapshot().Counters
			done, total := c.PebblesComputed, c.PebblesTotal
			if done != res.PebblesComputed || total != done {
				t.Errorf("%s, %d workers: pebbles_computed %d, pebbles_total %d, Result %d",
					name, workers, done, total, res.PebblesComputed)
			}
		}
	}
}

func TestTelemetryParallelBoundaryMetrics(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(16, 32)
	reg := telemetry.NewRegistry()
	cfg := Config{
		Delays:    delaysOf(16, 2),
		Guest:     guest.Spec{Graph: guest.NewLinearArray(32), Steps: 64, Seed: 7},
		Assign:    a,
		Workers:   4,
		Check:     true,
		Telemetry: reg,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	c, g := snap.Counters, snap.Gauges
	if c.PebblesComputed != res.PebblesComputed {
		t.Errorf("pebbles_computed = %d, want %d", c.PebblesComputed, res.PebblesComputed)
	}
	if c.BoundaryFlushes <= 0 || c.BoundaryMsgs <= 0 {
		t.Errorf("boundary coalescing not tracked: flushes=%d msgs=%d", c.BoundaryFlushes, c.BoundaryMsgs)
	}
	if g.RingOccupancyPeak <= 0 {
		t.Error("ring_occupancy_peak not tracked")
	}
	if g.PubclockLagMax <= 0 {
		t.Error("pubclock_lag_max not tracked")
	}
	if h := snap.Histograms.BoundaryBatchSize; h.Count != c.BoundaryFlushes {
		t.Errorf("batch-size histogram count %d != flushes %d", h.Count, c.BoundaryFlushes)
	}
	// One shard per chunk and nothing else.
	if shards := reg.ShardSnapshots(); len(shards) != 4 {
		t.Errorf("%d shards, want one per chunk (4)", len(shards))
	}
	// The snapshot is the manifest's metrics section: exactly the eight
	// counters, two gauges and one histogram, each under its schema name.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for sec, metrics := range doc {
		for name := range metrics {
			keys = append(keys, sec+"."+name)
		}
	}
	slices.Sort(keys)
	want := []string{
		"counters.boundary_flushes", "counters.boundary_msgs", "counters.pebbles_computed",
		"counters.pebbles_total", "counters.ring_full_stalls", "counters.worker_blocked_ns",
		"counters.worker_parks", "counters.worker_wakes",
		"gauges.pubclock_lag_max", "gauges.ring_occupancy_peak",
		"histograms.boundary_batch_size",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("metrics keys %v, want %v", keys, want)
	}
	// Telemetry must not perturb results: same config without a registry is
	// bit-identical.
	cfg2 := cfg
	cfg2.Telemetry = nil
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if *res2 != *res {
		t.Errorf("telemetry perturbed the run: %+v vs %+v", *res, *res2)
	}
}

// TestDisabledLayersAttachNothing makes "disabled costs nothing" exact: with
// a nil registry and a nil or empty fault plan, no chunk of either engine
// holds a telemetry shard or a fault plan, so the hot path pays only its
// nil checks. With both layers on, every chunk holds both.
func TestDisabledLayersAttachNothing(t *testing.T) {
	const hostN, cols = 16, 32
	a, err := assign.ReplicatedBlocks(hostN, cols, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Delays: delaysOf(hostN, 2),
		Guest:  guest.Spec{Graph: guest.NewLinearArray(cols), Steps: 8, Seed: 3},
		Assign: a,
	}
	// chunks builds what each chunk count runs, set up as Run sets it up:
	// one chunk, then four.
	chunks := func(cfg Config) []*chunk {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		rt := buildRoutes(cfg.Guest.Graph, cfg.Assign, nil, nil)
		out := []*chunk{newChunk(new(chunk), &cfg, rt, 0, hostN)}
		cuts := splitPositionsWork(cfg.Delays, nil, 4)
		for i := 0; i+1 < len(cuts); i++ {
			out = append(out, newChunk(new(chunk), &cfg, rt, cuts[i], cuts[i+1]))
		}
		return out
	}
	for _, plan := range []*fault.Plan{nil, {}, {Seed: 9}} {
		cfg := base
		cfg.Faults = plan
		for _, c := range chunks(cfg) {
			if c.tel != nil || c.faults != nil {
				t.Fatalf("plan %+v: chunk [%d,%d) holds tel=%v faults=%v", plan, c.lo, c.hi, c.tel, c.faults)
			}
		}
	}
	on := base
	on.Telemetry = telemetry.NewRegistry()
	on.Faults = &fault.Plan{Seed: 9, Jitters: []fault.Jitter{{Link: -1, Prob: 0.5, Amp: 2}}}
	for _, c := range chunks(on) {
		if c.tel == nil || c.faults == nil {
			t.Fatalf("enabled layers: chunk [%d,%d) holds tel=%v faults=%v", c.lo, c.hi, c.tel, c.faults)
		}
	}
}
