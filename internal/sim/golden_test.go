package sim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
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
// stream digest, the Result counters and the knowledge-ring figures.
func goldenLine(run runner, cfg sim.Config) (string, error) {
	buf := obs.NewBuffer()
	cfg.Check, cfg.Recorder = true, buf
	res, err := run(cfg)
	if err != nil {
		return "", err
	}
	w := res.Work
	return fmt.Sprintf("events=%d digest=%016x host_steps=%d pebbles=%d messages=%d hops=%d delivered=%d max_queue=%d checked=%v activations=%d know_live_peak=%d know_ring_bytes_peak=%d know_ring_grows=%d know_ring_shrinks=%d",
		len(buf.Events()), streamDigest(buf.Events()),
		res.HostSteps, res.PebblesComputed, res.Messages, res.MessageHops,
		res.DeliveredValues, res.MaxQueueDepth, res.Checked, res.AdaptActivations,
		w.KnowLivePeak, w.KnowRingBytesPeak, w.KnowRingGrows, w.KnowRingShrinks), nil
}

// TestGoldenDigests pins both engines' event streams, counters and ring
// figures over the head of the verify corpus. Any behaviour change shows up
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
// "# i scenario" header, then an "i seq" and an "i par" line. Each
// scenario's two Results must be equal, Work included.
func goldenCorpus(t *testing.T, line func(runner, sim.Config) (string, error)) *bytes.Buffer {
	t.Helper()
	var out bytes.Buffer
	var seq, res *sim.Result
	keep := func(cfg sim.Config) (*sim.Result, error) {
		var err error
		res, err = sim.Run(cfg)
		return res, err
	}
	for j, gc := range goldenCases(t) {
		if j%2 == 0 {
			fmt.Fprintf(&out, "# %d %s\n", j/2, gc.sc)
		}
		l, err := line(keep, gc.cfg)
		if err != nil {
			t.Fatalf("scenario %s (%s): %v", gc.name, gc.sc, err)
		}
		if j%2 == 0 {
			seq = res
		} else if *res != *seq {
			t.Errorf("scenario %s (%s): engines disagree\nseq %+v\npar %+v", gc.name, gc.sc, *seq, *res)
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

// countersLine runs cfg and renders its Result.Work, each field under its
// JSON name.
func countersLine(run runner, cfg sim.Config) (string, error) {
	res, err := run(cfg)
	if err != nil {
		return "", err
	}
	v := reflect.ValueOf(res.Work)
	fields := make([]string, v.NumField())
	for i := range fields {
		fields[i] = fmt.Sprintf("%s=%d", v.Type().Field(i).Tag.Get("json"), v.Field(i).Int())
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

// TestGoldenCounters pins the engines' exact work record, Result.Work: the
// head of the verify corpus on both engines, the engine benchmark's config
// on the sequential engine, and two long-link configs on both engines whose
// arrivals reach the calendar's overflow heap, one with the long link inside
// a chunk and one with it at the two-chunk cut. A change that moves the
// engine's work without touching its event stream (say, waiter-node
// recycling) shows up here and not in the digest file. Refresh it
// deliberately with
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
	for i, gc := range longLinkCases(t) {
		if i%2 == 0 {
			fmt.Fprintf(out, "# %s\n", longLinks[i/2].about)
		}
		prev := line
		if line, err = countersLine(sim.Run, gc.cfg); err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if i%2 == 1 && line != prev {
			t.Errorf("%s: engines disagree\nseq %s\npar %s", gc.name, prev, line)
		}
		fmt.Fprintf(out, "%s %s\n", gc.name, line)
	}
	compareGolden(t, countersFile, out.Bytes())
}

// longLinks are single-copy blocks on a 16-host line, 6 steps, with one
// link whose delay, 600, exceeds the calendar ring's 512-step span, so the
// arrivals it carries spill into the overflow heap. On two chunks the cut
// lands on link 7 (the work quantile is position 8 and the nudge picks the
// largest delay near it): "long" keeps the long link inside the first
// chunk, "longcut" puts it at the cut, where the receiving chunk schedules
// the arrivals whenever it drains the boundary batch.
var longLinks = []struct {
	name  string
	link  int
	about string
}{
	{"long", 3, "long: single-copy blocks on a 16-host line whose link 3 has delay 600, 6 steps"},
	{"longcut", 7, "longcut: the same with the delay-600 link at the two-chunk cut (link 7)"},
}

// longLinkCases builds each long-link config on the sequential engine and
// on two chunks, named "<name> seq" and "<name> par".
func longLinkCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, ll := range longLinks {
		a, err := assign.SingleCopyBlocks(16, 32)
		if err != nil {
			t.Fatal(err)
		}
		delays := []int{1, 2, 1, 3, 2, 1, 3, 1, 2, 1, 3, 2, 1, 2, 1}
		delays[ll.link] = 600
		for _, e := range []struct {
			name    string
			workers int
		}{{"seq", 0}, {"par", 2}} {
			cases = append(cases, goldenCase{name: ll.name + " " + e.name, cfg: sim.Config{
				Delays:  delays,
				Guest:   guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 6, Seed: 7},
				Assign:  a,
				Workers: e.workers,
			}})
		}
	}
	return cases
}
