package sim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the golden digests under testdata/")

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

// goldenLine runs one scenario on one engine and renders everything the
// digest file pins: the stream digest, the Result counters and the
// knowledge-ring gauges.
func goldenLine(sc *verify.Scenario, workers int) (string, error) {
	cfg, err := sc.Build()
	if err != nil {
		return "", err
	}
	buf := obs.NewBuffer()
	reg := telemetry.NewRegistry()
	cfg.Workers, cfg.Check, cfg.Recorder, cfg.Telemetry = workers, true, buf, reg
	res, err := sim.Run(*cfg)
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
	var out bytes.Buffer
	for i := 0; i < goldenScenarios; i++ {
		sc := verify.Generate(1, i)
		fmt.Fprintf(&out, "# %d %s\n", i, sc)
		for _, e := range []struct {
			name    string
			workers int
		}{{"seq", 0}, {"par", sc.Workers}} {
			line, err := goldenLine(sc, e.workers)
			if err != nil {
				t.Fatalf("scenario %d (%s) %s: %v", i, sc, e.name, err)
			}
			fmt.Fprintf(&out, "%d %s %s\n", i, e.name, line)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(want, out.Bytes()) {
		return
	}
	got, wl := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) || i < len(wl); i++ {
		var g, w []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s:%d differs\n got: %s\nwant: %s", goldenFile, i+1, g, w)
		}
	}
}
