package sim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/tree"
	"latencyhide/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenScenarios is how many verify.Generate(1, i) scenarios the digest
// file pins. Every fourth scenario runs the adaptive controller and the
// stream carries crash-stop plans, so both standby and avoid paths are in.
const goldenScenarios = 64

const goldenFile = "testdata/golden_digests.txt"

// streamDigest is the fnv64a of the canonical obs stream, every field of
// every event in a fixed little-endian layout.
func streamDigest(events []obs.Event) uint64 {
	h := fnv.New64a()
	var b [48]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.Step))
		b[8] = byte(e.Kind)
		binary.LittleEndian.PutUint32(b[9:], uint32(e.Proc))
		binary.LittleEndian.PutUint32(b[13:], uint32(e.Col))
		binary.LittleEndian.PutUint32(b[17:], uint32(e.GStep))
		binary.LittleEndian.PutUint32(b[21:], uint32(e.Link))
		b[25] = byte(e.Dir)
		binary.LittleEndian.PutUint32(b[26:], uint32(e.Route))
		binary.LittleEndian.PutUint64(b[30:], uint64(e.Dur))
		b[38] = byte(e.Cause)
		b[39] = byte(e.Fault)
		h.Write(b[:40])
	}
	return h.Sum64()
}

// runner runs one simulation: sim.Run, or an Arena's Run.
type runner func(sim.Config) (*sim.Result, error)

// goldenLine runs cfg and renders everything the digest file pins: the
// stream digest, the Result counters and the knowledge-ring gauges.
func goldenLine(run runner, cfg sim.Config) (string, error) {
	buf := obs.NewBuffer()
	reg := telemetry.NewRegistry()
	cfg.Check, cfg.Recorder, cfg.Telemetry = true, buf, reg
	res, err := run(cfg)
	if err != nil {
		return "", err
	}
	snap := reg.Snapshot()
	return fmt.Sprintf("events=%d digest=%016x host_steps=%d pebbles=%d messages=%d hops=%d delivered=%d max_queue=%d checked=%v activations=%d know_live_peak=%d know_ring_bytes_peak=%d know_ring_grows=%d know_ring_shrinks=%d",
		len(buf.Events()), streamDigest(buf.Events()),
		res.HostSteps, res.PebblesComputed, res.Messages, res.MessageHops,
		res.DeliveredValues, res.MaxQueueDepth, res.Checked, res.AdaptActivations,
		snap.Gauge("know_live_peak"), snap.Gauge("know_ring_bytes_peak"),
		snap.Counter("know_ring_grows"), snap.Counter("know_ring_shrinks")), nil
}

// TestGoldenDigests pins both engines' event streams, counters and ring
// gauges over the head of the verify corpus. Any behaviour change shows up
// as a diff of the digest file; refresh it deliberately with
//
//	go test ./internal/sim -run TestGoldenDigests -update
//
// and review the diff.
func TestGoldenDigests(t *testing.T) {
	compareGolden(t, goldenFile, goldenCorpus(t, goldenLine).Bytes())
}

// goldenCase is one pinned run: a corpus scenario on one engine.
type goldenCase struct {
	name string // "i seq" or "i par"
	sc   *verify.Scenario
	cfg  sim.Config
}

// goldenCases builds each pinned verify scenario on both engines: the
// sequential one, then the parallel one with the scenario's workers.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for i := 0; i < goldenScenarios; i++ {
		sc := verify.Generate(1, i)
		cfg, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc, err)
		}
		for _, e := range []struct {
			name    string
			workers int
		}{{"seq", 0}, {"par", sc.Workers}} {
			c := *cfg
			c.Workers = e.workers
			cases = append(cases, goldenCase{fmt.Sprintf("%d %s", i, e.name), sc, c})
		}
	}
	return cases
}

// goldenCorpus renders line for each golden case through sim.Run: a
// "# i scenario" header, then an "i seq" and an "i par" line.
func goldenCorpus(t *testing.T, line func(runner, sim.Config) (string, error)) *bytes.Buffer {
	t.Helper()
	var out bytes.Buffer
	for j, gc := range goldenCases(t) {
		if j%2 == 0 {
			fmt.Fprintf(&out, "# %d %s\n", j/2, gc.sc)
		}
		l, err := line(sim.Run, gc.cfg)
		if err != nil {
			t.Fatalf("scenario %s (%s): %v", gc.name, gc.sc, err)
		}
		fmt.Fprintf(&out, "%s %s\n", gc.name, l)
	}
	return &out
}

// compareGolden checks got against the checked-in file, or rewrites the
// file under -update, and reports each differing line.
func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s:%d differs\n got: %s\nwant: %s", file, i+1, g, w)
		}
	}
}

const countersFile = "testdata/golden_counters.txt"

// workCounters and workPeaks are the engine telemetry figures that count
// work rather than sample it: each is maintained inline on the hot path, so
// equal configs give equal values on every run. Peaks read off the ready
// heaps and the calendar depth at flush time (ready_heap_peak,
// cal_ring_depth_peak) depend on when a parallel chunk flushes and are left
// out, as is everything wall-clock.
var (
	workCounters = []string{"cal_due_events", "cal_overflow_events", "waiter_pool_hits",
		"waiter_pool_grows", "deliveries", "link_hops", "messages_injected", "boundary_msgs"}
	workPeaks = []string{"know_slots_peak", "know_retire_lag_peak", "cal_overflow_peak",
		"tx_queue_peak", "route_bytes"}
)

// countersLine runs cfg and renders its work counters and peaks.
func countersLine(run runner, cfg sim.Config) (string, error) {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if _, err := run(cfg); err != nil {
		return "", err
	}
	snap := reg.Snapshot()
	var fields []string
	for _, name := range workCounters {
		fields = append(fields, fmt.Sprintf("%s=%d", name, snap.Counter(name)))
	}
	for _, name := range workPeaks {
		fields = append(fields, fmt.Sprintf("%s=%d", name, snap.Gauge(name)))
	}
	return strings.Join(fields, " "), nil
}

// benchEngineConfig is the root package's BenchmarkEngineSequential run:
// the two-level OVERLAP assignment (beta 2, sqrtD 2) on a 1024-host
// bimodal line, 64 guest steps.
func benchEngineConfig(t *testing.T) sim.Config {
	t.Helper()
	const n = 1024
	far := n / 4
	g := network.Line(n, network.BimodalDelay{Near: 1, Far: far, P: 1 / float64(far)}, 3)
	delays := make([]int, g.NumLinks())
	for i, e := range g.Edges() {
		delays[i] = e.Delay
	}
	a, err := assign.TwoLevel(tree.Build(delays, 4), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 64, Seed: 7},
		Assign: a,
	}
}

// TestGoldenCounters pins the engines' exact work counters: the head of the
// verify corpus on both engines, the engine benchmark's config on the
// sequential engine, and a long-link config on both engines that reaches
// the calendar's overflow heap. A change that moves the engine's work
// without touching its event stream (say, waiter-node recycling) shows up
// here and not in the digest file. Refresh it deliberately with
//
//	go test ./internal/sim -run TestGoldenCounters -update
//
// and review the diff.
func TestGoldenCounters(t *testing.T) {
	out := goldenCorpus(t, countersLine)
	line, err := countersLine(sim.Run, benchEngineConfig(t))
	if err != nil {
		t.Fatalf("bench config: %v", err)
	}
	fmt.Fprintf(out, "# bench: OVERLAP two-level on a 1024-host bimodal line, 64 steps\nbench seq %s\n", line)
	long := longLinkConfig(t)
	fmt.Fprintf(out, "# long: single-copy blocks on a 16-host line whose link 3 has delay 600, 6 steps\n")
	for _, e := range []struct {
		name    string
		workers int
	}{{"seq", 0}, {"par", 2}} {
		long.Workers = e.workers
		if line, err = countersLine(sim.Run, long); err != nil {
			t.Fatalf("long-link config %s: %v", e.name, err)
		}
		fmt.Fprintf(out, "long %s %s\n", e.name, line)
	}
	compareGolden(t, countersFile, out.Bytes())
}

// longLinkConfig has one link whose delay, 600, exceeds the calendar ring's
// 512-step span, so the arrivals it schedules spill into the overflow heap.
// The link lies inside the first of two chunks, out of the cut's nudge
// window, so both engines schedule those arrivals at the sending chunk's
// own clock and the overflow counts do not depend on thread timing.
func longLinkConfig(t *testing.T) sim.Config {
	t.Helper()
	a, err := assign.SingleCopyBlocks(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Delays: []int{1, 2, 1, 600, 2, 1, 3, 1, 2, 1, 3, 2, 1, 2, 1},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 6, Seed: 7},
		Assign: a,
	}
}
