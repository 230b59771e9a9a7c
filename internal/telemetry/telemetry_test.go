package telemetry

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"latencyhide/internal/obs"
)

func TestRegistryMerge(t *testing.T) {
	r := NewRegistry()
	s1 := r.NewShard(0, 4)
	s2 := r.NewShard(4, 8)
	s1.PebblesComputed.Add(10)
	s2.PebblesComputed.Add(32)
	s1.RingOccupancyPeak.SetMax(7)
	s2.RingOccupancyPeak.SetMax(5)
	s1.BoundaryBatchSize.Observe(0)
	s1.BoundaryBatchSize.Observe(1)
	s2.BoundaryBatchSize.Observe(100)

	snap := r.Snapshot()
	if got := snap.Counters.PebblesComputed; got != 42 {
		t.Errorf("counter merged to %d, want 42", got)
	}
	if got := snap.Gauges.RingOccupancyPeak; got != 7 {
		t.Errorf("gauge merged to %d, want 7 (max)", got)
	}
	hs := snap.Histograms.BoundaryBatchSize
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
	s1 := r.NewShard(0, 4)
	s2 := r.NewShard(4, 8)
	s1.PebblesComputed.Add(10)
	s2.PebblesComputed.Add(32)
	s1.PubclockLagMax.SetMax(7)
	s2.BoundaryBatchSize.Observe(100)

	shards := r.ShardSnapshots()
	if len(shards) != 2 || shards[0].Lo != 0 || shards[0].Hi != 4 || shards[1].Lo != 4 || shards[1].Hi != 8 {
		t.Fatalf("shard snapshots %+v, want [0,4) then [4,8)", shards)
	}
	if a, b := shards[0].Counters.PebblesComputed, shards[1].Counters.PebblesComputed; a != 10 || b != 32 {
		t.Errorf("per-shard counters %d, %d, want 10, 32", a, b)
	}
	if a, b := shards[0].Gauges.PubclockLagMax, shards[1].Gauges.PubclockLagMax; a != 7 || b != 0 {
		t.Errorf("per-shard gauges %d, %d, want 7, 0", a, b)
	}
	if a, b := shards[0].Histograms.BoundaryBatchSize.Count, shards[1].Histograms.BoundaryBatchSize.Count; a != 0 || b != 1 {
		t.Errorf("per-shard histogram counts %d, %d, want 0, 1", a, b)
	}
	var nilReg *Registry
	if nilReg.ShardSnapshots() != nil {
		t.Error("nil registry must have no shards")
	}
}

// A nil registry is telemetry switched off: it hands out nil shards, which
// the engine never writes, and reads as an all-zero snapshot.
func TestNilShardIsNoop(t *testing.T) {
	var r *Registry
	if sh := r.NewShard(0, 1); sh != nil {
		t.Fatal("nil registry must hand out nil shards")
	}
	if snap := r.Snapshot(); snap == nil || snap.Counters != (Counters{}) || snap.Gauges != (Gauges{}) ||
		snap.Histograms.BoundaryBatchSize.Count != 0 {
		t.Fatalf("nil registry snapshot %+v, want empty, not nil", snap)
	}
	// A sampler without a registry records memory only.
	if last := StartSampler(nil, time.Millisecond).Stop(); len(last) == 0 || last[len(last)-1].Pebbles != 0 {
		t.Fatalf("registry-less sampler series %+v", last)
	}
}

func TestConcurrentShardWritesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	shards := make([]*Shard, workers)
	for i := range shards {
		shards[i] = r.NewShard(i, i+1)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.BoundaryFlushes.Add(1)
				s.RingOccupancyPeak.SetMax(int64(j))
				s.BoundaryBatchSize.Observe(int64(j))
			}
		}(shards[i])
	}
	// Concurrent reader: snapshots mid-run must be safe and monotone.
	var last int64
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if v := snap.Counters.BoundaryFlushes; v < last {
			t.Errorf("counter went backwards: %d -> %d", last, v)
		} else {
			last = v
		}
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters.BoundaryFlushes; got != workers*per {
		t.Errorf("flushes = %d, want %d", got, workers*per)
	}
	if got := snap.Gauges.RingOccupancyPeak; got != per-1 {
		t.Errorf("peak = %d, want %d", got, per-1)
	}
	if got := snap.Histograms.BoundaryBatchSize.Count; got != workers*per {
		t.Errorf("hist count = %d, want %d", got, workers*per)
	}
}

func TestSamplerSeries(t *testing.T) {
	r := NewRegistry()
	sh := r.NewShard(0, 1)
	s := StartSampler(r, time.Millisecond)
	for i := 0; i < 100; i++ {
		sh.PebblesComputed.Add(10)
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
		Counters: Counters{PebblesComputed: 1000, BoundaryMsgs: 40},
		Gauges:   Gauges{RingOccupancyPeak: 2, PubclockLagMax: 17},
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
		Stalls:         &obs.StallBreakdown{ProcSteps: 1600, Busy: 1000, Idle: 300, Dependency: 200, Bandwidth: 100},
		CriticalPath:   &obs.CriticalPath{Length: 40, Compute: 10, Transit: 20, Queue: 4, Wait: 6},
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
	if got.Metrics == nil || got.Metrics.Counters != snap.Counters || got.Metrics.Gauges != snap.Gauges {
		t.Errorf("metrics section round-tripped to %+v, want %+v", got.Metrics, snap)
	}
	if got.Stalls == nil || *got.Stalls != *m.Stalls {
		t.Errorf("stalls section round-tripped to %+v, want %+v", got.Stalls, m.Stalls)
	}
	if got.CriticalPath == nil || !reflect.DeepEqual(got.CriticalPath, m.CriticalPath) {
		t.Errorf("critical_path section round-tripped to %+v, want %+v", got.CriticalPath, m.CriticalPath)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}

	// A parallel run without ring telemetry must be rejected.
	bad := *got
	bad.Metrics = &Snapshot{Counters: Counters{PebblesComputed: 1000}}
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
	// Every run reports its progress counter, its work section with both
	// memory footprints, and stall and critical-path sections that tile.
	for _, c := range []struct {
		name string
		edit func(*RunManifest)
	}{
		{"pebbles_computed", func(m *RunManifest) { m.Metrics = &Snapshot{} }},
		{"missing work section", func(m *RunManifest) { m.Work = nil }},
		{"know_ring_bytes_peak", func(m *RunManifest) { m.Work = &Work{RouteBytes: 512} }},
		{"route_bytes", func(m *RunManifest) { m.Work = &Work{KnowRingBytesPeak: 2048} }},
		{"missing stalls section", func(m *RunManifest) { m.Stalls = nil }},
		{"proc_steps", func(m *RunManifest) { m.Stalls = &obs.StallBreakdown{ProcSteps: 1600, Busy: 1000, Idle: 300} }},
		{"missing critical_path section", func(m *RunManifest) { m.CriticalPath = nil }},
		{"length", func(m *RunManifest) { m.CriticalPath = &obs.CriticalPath{Length: 40, Compute: 10, Transit: 20} }},
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
