package obs_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
)

// recordedRun executes a seeded random line simulation with recording on
// and returns the canonical stream, the run facts and the result.
func recordedRun(t testing.TB, seed int64, hostN, steps, bandwidth, cps int) ([]obs.Event, obs.RunInfo, *sim.Result) {
	t.Helper()
	cfg, buf := recordedConfig(seed, hostN, steps, bandwidth, cps)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Events(), cfg.ObsInfo(res), res
}

func recordedConfig(seed int64, hostN, steps, bandwidth, cps int) (sim.Config, *obs.Buffer) {
	r := rand.New(rand.NewSource(seed))
	delays := make([]int, hostN-1)
	for i := range delays {
		delays[i] = 1 + r.Intn(12)
	}
	a, err := assign.UniformBlocks(hostN, 2, 4, 0)
	if err != nil {
		panic(err)
	}
	buf := obs.NewBuffer()
	return sim.Config{
		Delays:         delays,
		Guest:          guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: steps, Seed: seed},
		Assign:         a,
		Bandwidth:      bandwidth,
		ComputePerStep: cps,
		Recorder:       buf,
	}, buf
}

// Property: the stall-cause breakdown tiles the run exactly — busy + idle +
// dependency + bandwidth processor-steps equal hostN x hostSteps, and the
// derived stall spans sum to the stalled share. The spans Stalls derived
// are the ones StallSpans returns: they are built once per Analysis.
func TestStallBreakdownSumsProperty(t *testing.T) {
	f := func(seed int64, hostSel, bwSel uint8) bool {
		hostN := 8 + int(hostSel%4)*4
		bw := 1 + int(bwSel%4)
		events, info, _ := recordedRun(t, seed, hostN, 8, bw, 1+int(bwSel%3))
		a := obs.Analyze(events, info)
		sb := a.Stalls()
		if sb.Busy+sb.Idle+sb.Dependency+sb.Bandwidth != sb.ProcSteps {
			t.Logf("seed %d: busy %d + idle %d + dep %d + bw %d != %d",
				seed, sb.Busy, sb.Idle, sb.Dependency, sb.Bandwidth, sb.ProcSteps)
			return false
		}
		spans := a.StallSpans()
		if len(spans) > 0 && &spans[0] != &a.StallSpans()[0] {
			t.Logf("seed %d: StallSpans derived its spans twice", seed)
			return false
		}
		var spanTotal int64
		for _, s := range spans {
			if s.Kind != obs.KindStall || s.Dur < 1 {
				return false
			}
			spanTotal += s.Dur
		}
		return spanTotal == sb.Stalled()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Starving the links (B=1) must shift stall attribution toward bandwidth
// relative to the paper's high-bandwidth regime on the same workload.
func TestBandwidthStallDirection(t *testing.T) {
	share := func(bw int) (float64, int64) {
		events, info, _ := recordedRun(t, 3, 16, 10, bw, 4)
		sb := obs.Analyze(events, info).Stalls()
		return sb.BandwidthShare(), sb.Bandwidth
	}
	narrowShare, narrowSteps := share(1)
	wideShare, _ := share(8)
	if narrowSteps == 0 {
		t.Fatal("B=1 run recorded no bandwidth stalls")
	}
	if narrowShare < wideShare {
		t.Fatalf("bandwidth-stall share did not grow when B shrank: B=1 %.3f < B=8 %.3f",
			narrowShare, wideShare)
	}
}

// The critical-path decomposition tiles its length exactly and walks one
// guest step at a time back to step 1.
func TestCriticalPathTiling(t *testing.T) {
	for _, seed := range []int64{2, 9, 23} {
		events, info, res := recordedRun(t, seed, 20, 9, 2, 1)
		cp := obs.Analyze(events, info).CriticalPath()
		if cp.Length != res.HostSteps {
			t.Fatalf("seed %d: path length %d != host steps %d", seed, cp.Length, res.HostSteps)
		}
		if cp.Compute+cp.Transit+cp.Queue+cp.Wait != cp.Length {
			t.Fatalf("seed %d: %d+%d+%d+%d != %d",
				seed, cp.Compute, cp.Transit, cp.Queue, cp.Wait, cp.Length)
		}
		if len(cp.Nodes) != info.GuestSteps {
			t.Fatalf("seed %d: %d chain nodes for %d guest steps", seed, len(cp.Nodes), info.GuestSteps)
		}
		for i, n := range cp.Nodes {
			if int(n.GStep) != i+1 {
				t.Fatalf("seed %d: node %d at guest step %d", seed, i, n.GStep)
			}
			if i > 0 && n.Step <= cp.Nodes[i-1].Step {
				t.Fatalf("seed %d: chain steps not increasing at node %d", seed, i)
			}
		}
		if s := cp.ComputeShare() + cp.TransitShare() + cp.QueueShare() + cp.WaitShare(); s < 0.999 || s > 1.001 {
			t.Fatalf("seed %d: shares sum to %f", seed, s)
		}
	}
}

// Heatmap counts and link gauges must reconcile with the run's aggregate
// counters.
func TestHeatmapAndLinkGauges(t *testing.T) {
	events, info, res := recordedRun(t, 5, 12, 8, 2, 2)
	a := obs.Analyze(events, info)
	h := a.Heatmap(16)
	var total int64
	for _, row := range h.Counts {
		for _, c := range row {
			total += c
		}
	}
	if total != res.PebblesComputed {
		t.Fatalf("heatmap total %d != pebbles %d", total, res.PebblesComputed)
	}
	gauges := a.LinkGauges()
	if len(gauges) != 2*len(info.Delays) {
		t.Fatalf("%d gauges for %d links", len(gauges), len(info.Delays))
	}
	var injects int64
	for _, g := range gauges {
		injects += g.Injects
		if g.Utilization < 0 || g.Utilization > 1 {
			t.Fatalf("link %d dir %d utilization %f", g.Link, g.Dir, g.Utilization)
		}
		if g.QueueSteps < 0 || g.PeakQueue < 0 {
			t.Fatalf("link %d negative gauge: %+v", g.Link, g)
		}
	}
	if injects != res.MessageHops {
		t.Fatalf("gauge injects %d != hops %d", injects, res.MessageHops)
	}
	if res.MaxQueueDepth > 0 {
		peak := 0
		for _, g := range gauges {
			if g.PeakQueue > peak {
				peak = g.PeakQueue
			}
		}
		if peak != res.MaxQueueDepth {
			t.Fatalf("reconstructed peak queue %d != engine's %d", peak, res.MaxQueueDepth)
		}
	}
}

// The Chrome trace-event export must be structurally valid: a traceEvents
// array whose entries all carry ph, ts, pid and tid.
func TestChromeTraceSchema(t *testing.T) {
	events, info, _ := recordedRun(t, 4, 10, 6, 2, 2)
	a := obs.Analyze(events, info)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := obs.WriteChromeTraceFile(path, events, a.StallSpans(), info); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	phs := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		phs[ph] = true
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
		}
	}
	if !phs["X"] || !phs["i"] {
		t.Fatalf("expected both complete and instant events, got %v", phs)
	}
}

// Merging a canonical stream's parts, each out of order, appends the
// canonical stream after the events a buffer already holds.
func TestMergeCanonical(t *testing.T) {
	events, _, _ := recordedRun(t, 6, 10, 6, 2, 1)
	var even, odd []obs.Event
	for i := len(events) - 1; i >= 0; i-- {
		if i%2 == 0 {
			even = append(even, events[i])
		} else {
			odd = append(odd, events[i])
		}
	}
	buf := obs.NewBuffer()
	buf.RecordCompute(99, 0, 0, 0)
	first := buf.Events()[0]
	buf.Merge(odd, even)
	got := buf.Events()
	if len(got) != len(events)+1 || got[0] != first {
		t.Fatalf("merged %d events after %+v, want %d after %+v", len(got)-1, got[0], len(events), first)
	}
	for i := range events {
		if got[i+1] != events[i] {
			t.Fatalf("event %d differs after merge: %+v vs %+v", i, got[i+1], events[i])
		}
	}
}

// The stall tiling and the critical path are the run manifest's summary of
// a recorded run: they must tile and survive a JSON round trip under the
// manifest's keys, without the chain's nodes.
func TestSummaryJSON(t *testing.T) {
	events, info, res := recordedRun(t, 8, 12, 8, 2, 2)
	a := obs.Analyze(events, info)
	sb, cp := a.Stalls(), a.CriticalPath()
	if sb.ProcSteps != int64(info.HostN)*res.HostSteps ||
		sb.Busy+sb.Idle+sb.Dependency+sb.Bandwidth+sb.Fault != sb.ProcSteps {
		t.Fatalf("stall breakdown does not tile: %+v (host steps %d)", sb, res.HostSteps)
	}
	if len(cp.Nodes) == 0 || cp.Compute+cp.Transit+cp.Queue+cp.Wait != cp.Length {
		t.Fatalf("critical path does not tile: %+v", cp)
	}
	raw, err := json.Marshal(struct {
		Stalls       obs.StallBreakdown `json:"stalls"`
		CriticalPath *obs.CriticalPath  `json:"critical_path"`
	}{sb, cp})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"proc_steps", "busy", "idle", "dependency", "bandwidth"} {
		if _, ok := keys["stalls"][k]; !ok {
			t.Errorf("stalls JSON %s lacks %q", raw, k)
		}
	}
	for _, k := range []string{"length", "compute", "transit", "queue", "wait"} {
		if _, ok := keys["critical_path"][k]; !ok {
			t.Errorf("critical_path JSON %s lacks %q", raw, k)
		}
	}
	if len(keys["critical_path"]) != 5 {
		t.Errorf("critical_path JSON carries more than its five legs: %s", raw)
	}
	var back struct {
		Stalls       obs.StallBreakdown `json:"stalls"`
		CriticalPath obs.CriticalPath   `json:"critical_path"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.CriticalPath; back.Stalls != sb || got.Nodes != nil || got.Length != cp.Length ||
		got.Compute != cp.Compute || got.Transit != cp.Transit || got.Queue != cp.Queue || got.Wait != cp.Wait {
		t.Fatalf("round trip mismatch: %+v %+v vs %+v %+v", back.Stalls, got, sb, cp)
	}
}

// Degenerate inputs: an empty stream must not panic anywhere.
func TestEmptyStream(t *testing.T) {
	info := obs.RunInfo{HostN: 4, Delays: []int{1, 1, 1}, Bandwidth: 1,
		ProcPebbles: make([]int64, 4), Neighbors: func(int) []int { return nil }}
	a := obs.Analyze(nil, info)
	if sb := a.Stalls(); sb.Busy != 0 || sb.Stalled() != 0 {
		t.Fatalf("empty stalls %+v", sb)
	}
	if cp := a.CriticalPath(); cp.Length != 0 || len(cp.Nodes) != 0 {
		t.Fatalf("empty critical path %+v", cp)
	}
	if spans := a.StallSpans(); len(spans) != 0 {
		t.Fatalf("empty stream produced stall spans %v", spans)
	}
	a.Heatmap(8)
	a.LinkGauges()
}
