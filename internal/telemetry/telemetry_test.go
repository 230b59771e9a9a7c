package telemetry

import (
	"bytes"
	"flag"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pebbles_computed")
	g := r.Gauge("depth_peak")
	h := r.Histogram("batch")

	s1 := r.NewShard("w0")
	s2 := r.NewShard("w1")
	s1.Add(c, 10)
	s2.Add(c, 32)
	s1.SetMax(g, 7)
	s2.SetMax(g, 5)
	s1.Observe(h, 0)
	s1.Observe(h, 1)
	s2.Observe(h, 100)

	snap := r.Snapshot()
	if got := snap.Counter("pebbles_computed"); got != 42 {
		t.Errorf("counter merged to %d, want 42", got)
	}
	if got := snap.Gauge("depth_peak"); got != 7 {
		t.Errorf("gauge merged to %d, want 7 (max)", got)
	}
	hs := snap.Hists["batch"]
	if hs.Count != 3 || hs.Sum != 101 {
		t.Errorf("hist count=%d sum=%d, want 3/101", hs.Count, hs.Sum)
	}
	// Bucket layout: v=0 -> bucket 0, v=1 -> bucket 1, v=100 -> bucket 7.
	if len(hs.Buckets) != 8 || hs.Buckets[0] != 1 || hs.Buckets[1] != 1 || hs.Buckets[7] != 1 {
		t.Errorf("hist buckets = %v", hs.Buckets)
	}
	if hs.P50 != 1 {
		t.Errorf("P50 = %d, want 1", hs.P50)
	}
	if hs.P99 != 127 {
		t.Errorf("P99 = %d, want 127 (top of the [64,128) bucket)", hs.P99)
	}
}

// ShardSnapshots reads each shard alone, in creation order, with the same
// merge rules Snapshot applies across them.
func TestShardSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pebbles_computed")
	g := r.Gauge("depth_peak")
	h := r.Histogram("batch")
	s1 := r.NewShard("w0")
	s2 := r.NewShard("w1")
	s1.Add(c, 10)
	s2.Add(c, 32)
	s1.SetMax(g, 7)
	s2.Observe(h, 100)

	shards := r.ShardSnapshots()
	if len(shards) != 2 || shards[0].Label != "w0" || shards[1].Label != "w1" {
		t.Fatalf("shard snapshots %+v, want w0 then w1", shards)
	}
	if a, b := shards[0].Counter("pebbles_computed"), shards[1].Counter("pebbles_computed"); a != 10 || b != 32 {
		t.Errorf("per-shard counters %d, %d, want 10, 32", a, b)
	}
	if a, b := shards[0].Gauge("depth_peak"), shards[1].Gauge("depth_peak"); a != 7 || b != 0 {
		t.Errorf("per-shard gauges %d, %d, want 7, 0", a, b)
	}
	if a, b := shards[0].Hists["batch"].Count, shards[1].Hists["batch"].Count; a != 0 || b != 1 {
		t.Errorf("per-shard histogram counts %d, %d, want 0, 1", a, b)
	}
	var nilReg *Registry
	if nilReg.ShardSnapshots() != nil {
		t.Error("nil registry must have no shards")
	}
}

func TestNilShardIsNoop(t *testing.T) {
	var s *Shard
	// The disabled fast path: all writes on a nil shard must be safe no-ops.
	s.Add(0, 5)
	s.Inc(0)
	s.SetMax(0, 5)
	s.Observe(0, 5)
	var r *Registry
	if sh := r.NewShard("x"); sh != nil {
		t.Fatal("nil registry must hand out nil shards")
	}
	if snap := r.Snapshot(); snap == nil || len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty, not nil")
	}
}

func TestRegisterAfterShardPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a")
	r.NewShard("w0")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a new metric after NewShard must panic")
		}
	}()
	r.Counter("b")
}

func TestConcurrentShardWritesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("peak")
	h := r.Histogram("sizes")
	const workers, per = 8, 1000
	shards := make([]*Shard, workers)
	for i := range shards {
		shards[i] = r.NewShard("w")
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.Inc(c)
				s.SetMax(g, int64(j))
				s.Observe(h, int64(j))
			}
		}(shards[i])
	}
	// Concurrent reader: snapshots mid-run must be safe and monotone.
	var last int64
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if v := snap.Counter("ops"); v < last {
			t.Errorf("counter went backwards: %d -> %d", last, v)
		} else {
			last = v
		}
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("ops"); got != workers*per {
		t.Errorf("ops = %d, want %d", got, workers*per)
	}
	if got := snap.Gauge("peak"); got != per-1 {
		t.Errorf("peak = %d, want %d", got, per-1)
	}
	if got := snap.Hists["sizes"].Count; got != workers*per {
		t.Errorf("hist count = %d, want %d", got, workers*per)
	}
}

func TestSamplerSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pebbles_computed")
	sh := r.NewShard("w0")
	s := StartSampler(r, time.Millisecond)
	for i := 0; i < 100; i++ {
		sh.Add(c, 10)
		time.Sleep(100 * time.Microsecond)
	}
	series := s.Stop()
	if len(series) == 0 {
		t.Fatal("sampler produced no samples")
	}
	last := series[len(series)-1]
	if last.HeapAlloc == 0 || last.TotalAlloc == 0 {
		t.Errorf("final sample has empty MemStats: %+v", last)
	}
	if last.Pebbles != 1000 {
		t.Errorf("final sample pebbles = %d, want 1000", last.Pebbles)
	}
	for i := 1; i < len(series); i++ {
		if series[i].ElapsedMS < series[i-1].ElapsedMS {
			t.Fatalf("series not time-ordered at %d", i)
		}
	}
}

func TestManifestRoundTripAndValidate(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.json"
	snap := &Snapshot{
		Counters: map[string]int64{"pebbles_computed": 1000, "boundary_msgs": 40},
		Gauges:   map[string]int64{"ring_occupancy_peak": 2, "pubclock_lag_max": 17},
	}
	work := &Work{KnowRingBytesPeak: 2048, RouteBytes: 512, WaiterPoolHits: 7}
	m := &RunManifest{
		Command:        "run",
		ConfigHash:     hashArgs(t, "-n", "256"),
		Scenario:       "host=random n=256",
		Engine:         "parallel",
		Workers:        2,
		WallSeconds:    0.5,
		Pebbles:        1000,
		BytesPerPebble: 24.5,
		Work:           work,
		Metrics:        snap,
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema {
		t.Errorf("schema = %q", got.Schema)
	}
	if got.Work == nil || *got.Work != *work {
		t.Errorf("work section round-tripped to %+v, want %+v", got.Work, work)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}

	// A parallel run without ring telemetry must be rejected.
	bad := *got
	bad.Metrics = &Snapshot{Counters: map[string]int64{"pebbles_computed": 1000}}
	if err := bad.Validate(); err == nil ||
		!strings.Contains(err.Error(), "ring_occupancy_peak") {
		t.Errorf("missing ring telemetry not flagged: %v", err)
	}
	// A sequential run without it is fine.
	seq := bad
	seq.Engine = "sequential"
	seq.Workers = 0
	if err := seq.Validate(); err != nil {
		t.Errorf("sequential manifest rejected: %v", err)
	}
	// Every run reports its progress counter and its work section, with
	// both memory footprints.
	for _, c := range []struct {
		name string
		edit func(*RunManifest)
	}{
		{"pebbles_computed", func(m *RunManifest) { m.Metrics = &Snapshot{} }},
		{"missing work section", func(m *RunManifest) { m.Work = nil }},
		{"know_ring_bytes_peak", func(m *RunManifest) { m.Work = &Work{RouteBytes: 512} }},
		{"route_bytes", func(m *RunManifest) { m.Work = &Work{KnowRingBytesPeak: 2048} }},
	} {
		bad := seq
		c.edit(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s not flagged: %v", c.name, err)
		}
	}
	// Wrong schema fails.
	ws := *got
	ws.Schema = "nope"
	if err := ws.Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
}

// Fleet-mode sweep manifests validate on the Fleet section instead of
// sweep points; twin manifests require at least one family report.
func TestManifestFleetTwinSections(t *testing.T) {
	fm := &RunManifest{
		Schema: ManifestSchema, Command: "sweep",
		ConfigHash: "x", WallSeconds: 0.1,
		Fleet: &FleetSummary{Seed: 1, N: 100, Shards: 2, Shard: 1, Items: 50, Store: "s.jsonl"},
	}
	if err := fm.Validate(); err != nil {
		t.Errorf("fleet sweep manifest rejected: %v", err)
	}
	bad := *fm
	bad.Fleet = &FleetSummary{Seed: 1, N: 100, Shards: 2, Shard: 2, Items: 50}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Errorf("out-of-range shard accepted: %v", err)
	}
	bad.Fleet = &FleetSummary{Seed: 1, N: 100, Shards: 2, Shard: 0}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "items") {
		t.Errorf("empty fleet shard accepted: %v", err)
	}
	// A host-size sweep (no Fleet section) still needs points.
	empty := &RunManifest{Schema: ManifestSchema, Command: "sweep", ConfigHash: "x", WallSeconds: 0.1}
	if err := empty.Validate(); err == nil || !strings.Contains(err.Error(), "points") {
		t.Errorf("pointless sweep accepted: %v", err)
	}

	tm := &RunManifest{
		Schema: ManifestSchema, Command: "twin",
		ConfigHash: "x", WallSeconds: 0.1,
		Twin: []TwinFamily{{Name: "uniform", N: 10, MAPE: 0.1, Ceiling: 0.2, Pass: true}},
	}
	if err := tm.Validate(); err != nil {
		t.Errorf("twin manifest rejected: %v", err)
	}
	tm.Twin = nil
	if err := tm.Validate(); err == nil || !strings.Contains(err.Error(), "family") {
		t.Errorf("empty twin manifest accepted: %v", err)
	}
}

// hashArgs parses args into a small run-like flag set and hashes it.
func hashArgs(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.Int("n", 256, "hosts")
	fs.Int("d", 4, "degree")
	fs.Bool("check", false, "verify digests")
	fs.String("manifest-out", "", "manifest path")
	fs.String("trace-out", "", "trace path")
	fs.String("profile", "", "profile path")
	fs.Bool("live", false, "status line")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ConfigHash("run", fs, "manifest-out", "trace-out", "profile", "live")
}

func TestConfigHashStable(t *testing.T) {
	a := hashArgs(t, "-n", "256")
	if a != hashArgs(t, "-n", "256") {
		t.Error("hash not deterministic")
	}
	if a == hashArgs(t, "-n", "512") {
		t.Error("hash ignores flag values")
	}
	if a == hashArgs(t, "-n", "256", "-check") {
		t.Error("hash ignores a boolean flag")
	}
	if a == hashArgs(t, "-n", "256", "extra") {
		t.Error("hash ignores positional arguments")
	}
	if hashArgs(t, "ab", "c") == hashArgs(t, "a", "bc") {
		t.Error("fields are not separated")
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	if ConfigHash("run", fs) == ConfigHash("sweep", fs) {
		t.Error("hash ignores the command")
	}
}

// The hash is of the resolved configuration: flag order, spelling and an
// explicitly given default all resolve to the same flag set.
func TestConfigHashFlagOrderInvariant(t *testing.T) {
	want := hashArgs(t, "-n", "256", "-d", "4")
	for _, args := range [][]string{
		{"-d", "4", "-n", "256"},
		{"-d=4", "-n=256"},
		{"-n", "256"},
		{},
	} {
		if got := hashArgs(t, args...); got != want {
			t.Errorf("%q hashes %s, want %s", args, got, want)
		}
	}
}

// Skipped flags say where results go, not what runs.
func TestConfigHashOutputPathInvariant(t *testing.T) {
	want := hashArgs(t, "-n", "128")
	for _, args := range [][]string{
		{"-n", "128", "-manifest-out", "a.json"},
		{"-manifest-out", "b.json", "-n", "128"},
		{"-n", "128", "-trace-out", "t.json", "-profile", "cpu.pprof", "-live"},
	} {
		if got := hashArgs(t, args...); got != want {
			t.Errorf("%q hashes %s, want %s", args, got, want)
		}
	}
	if hashArgs(t, "-n", "128", "-manifest-out", "a.json") == hashArgs(t, "-n", "128", "-manifest-out", "a.json", "-check") {
		t.Error("a skipped flag hides the flags after it")
	}
}

func TestLiveStatus(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	n := 0
	l := StartLive(&mu2Writer{mu: &mu, w: &buf}, time.Millisecond, func() string {
		n++
		return "frame"
	})
	time.Sleep(20 * time.Millisecond)
	l.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "\rframe") {
		t.Errorf("live output missing frames: %q", out)
	}
	if !strings.HasSuffix(out, "\r") {
		t.Errorf("live output does not end with a cleared line: %q", out)
	}
}

// mu2Writer serializes writes so the test can read the buffer safely.
type mu2Writer struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (m *mu2Writer) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.w.Write(p)
}

func TestRateAndETA(t *testing.T) {
	if got := Rate(1_500_000); got != "1.5M/s" {
		t.Errorf("Rate = %q", got)
	}
	if got := ETA(50, 100, 10*time.Second); got != "10s" {
		t.Errorf("ETA = %q, want 10s", got)
	}
	if got := ETA(0, 100, time.Second); got != "--" {
		t.Errorf("ETA with no progress = %q, want --", got)
	}
}
