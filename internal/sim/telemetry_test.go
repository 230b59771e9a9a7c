package sim

import (
	"slices"
	"testing"

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
	// The deterministic counters must agree exactly with the Result the
	// engine already reports — telemetry is a view, not a second accounting.
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"pebbles_computed", res.PebblesComputed},
		{"pebbles_total", res.PebblesComputed}, // complete run: all work done
		{"messages_injected", res.Messages},
		{"link_hops", res.MessageHops},
		{"deliveries", res.DeliveredValues},
	} {
		if got := snap.Counter(tc.name); got != tc.want {
			t.Errorf("counter %s = %d, want %d", tc.name, got, tc.want)
		}
	}
	if snap.Counter("cal_due_events") <= 0 {
		t.Error("cal_due_events not counted")
	}
	if snap.Gauge("cal_ring_depth_peak") <= 0 {
		t.Error("cal_ring_depth_peak not tracked")
	}
	if snap.Gauge("tx_queue_peak") <= 0 {
		t.Error("tx_queue_peak not tracked")
	}
	if snap.Counter("waiter_pool_hits")+snap.Counter("waiter_pool_grows") <= 0 {
		t.Error("waiter pool not tracked")
	}
	if snap.Gauge("know_live_peak") <= 0 || snap.Gauge("know_slots_peak") <= 0 {
		t.Errorf("dense knowledge gauges empty: live=%d slots=%d",
			snap.Gauge("know_live_peak"), snap.Gauge("know_slots_peak"))
	}
	// Retirement always trails the frontier by at least one step on a line.
	if snap.Gauge("know_retire_lag_peak") < 1 {
		t.Errorf("know_retire_lag_peak = %d, want >= 1", snap.Gauge("know_retire_lag_peak"))
	}
	h, ok := snap.Hists["cal_due_per_step"]
	if !ok || h.Count <= 0 {
		t.Error("cal_due_per_step histogram empty")
	}
	// Sequential engine must not report parallel-only metrics.
	if snap.Gauge("ring_occupancy_peak") != 0 || snap.Counter("boundary_flushes") != 0 {
		t.Error("sequential run reported boundary telemetry")
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
	if got := snap.Counter("pebbles_computed"); got != res.PebblesComputed {
		t.Errorf("pebbles_computed = %d, want %d", got, res.PebblesComputed)
	}
	if got := snap.Counter("messages_injected"); got != res.Messages {
		t.Errorf("messages_injected = %d, want %d", got, res.Messages)
	}
	if snap.Counter("boundary_flushes") <= 0 || snap.Counter("boundary_msgs") <= 0 {
		t.Errorf("boundary coalescing not tracked: flushes=%d msgs=%d",
			snap.Counter("boundary_flushes"), snap.Counter("boundary_msgs"))
	}
	if snap.Gauge("ring_occupancy_peak") <= 0 {
		t.Error("ring_occupancy_peak not tracked")
	}
	if snap.Gauge("pubclock_lag_max") <= 0 {
		t.Error("pubclock_lag_max not tracked")
	}
	if h, ok := snap.Hists["boundary_batch_size"]; !ok || h.Count != snap.Counter("boundary_flushes") {
		t.Errorf("batch-size histogram count %d != flushes %d",
			h.Count, snap.Counter("boundary_flushes"))
	}
	// One shard per chunk and nothing else.
	if shards := reg.ShardSnapshots(); len(shards) != 4 {
		t.Errorf("%d shards, want one per chunk (4)", len(shards))
	}
	if !slices.Contains(reg.Names(), "counter:worker_blocked_ns") {
		t.Errorf("worker_blocked_ns missing from the schema %v", reg.Names())
	}
	// Telemetry must not perturb results: same config without a registry is
	// bit-identical.
	cfg2 := cfg
	cfg2.Telemetry = nil
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HostSteps != res.HostSteps || res2.PebblesComputed != res.PebblesComputed ||
		res2.MessageHops != res.MessageHops {
		t.Errorf("telemetry perturbed the run: %+v vs %+v", res, res2)
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
	// chunks builds what each engine runs, set up as Run sets it up: the
	// sequential engine's one chunk, then the parallel engine's four.
	chunks := func(cfg Config) []*chunk {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if cfg.Telemetry != nil {
			cfg.em = registerEngineMetrics(cfg.Telemetry)
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
