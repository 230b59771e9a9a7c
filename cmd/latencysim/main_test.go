package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latencyhide/internal/fleet"
	"latencyhide/internal/overlap"
	"latencyhide/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed; the run subcommand writes straight to stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	got := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		got <- string(b)
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	out := <-got
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// traceSection cuts the utilization timeline (its header and two sparklines)
// out of run's output.
func traceSection(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "trace (window")
	if i < 0 {
		t.Fatalf("no trace section in:\n%s", out)
	}
	lines := strings.SplitAfterN(out[i:], "\n", 4)
	if len(lines) < 3 {
		t.Fatalf("truncated trace section:\n%s", out[i:])
	}
	return strings.Join(lines[:3], "")
}

// run -trace's timeline is deterministic. The sequential run's whole output
// is pinned; the parallel run prints a chunk table of wall-clock figures
// beside it, so only its trace section is pinned.
func TestRunTraceGolden(t *testing.T) {
	seq := captureStdout(t, func() error {
		return cmdRun([]string{"-host", "line", "-n", "48", "-steps", "8", "-variant", "loadone", "-trace"})
	})
	checkGolden(t, "run_trace", seq)
	par := captureStdout(t, func() error {
		return cmdRun([]string{"-host", "random", "-n", "64", "-steps", "40", "-variant", "loadone", "-bw", "1", "-workers", "4", "-trace"})
	})
	checkGolden(t, "run_trace_workers4", traceSection(t, par))
}

func TestParseVariant(t *testing.T) {
	good := map[string]string{
		"loadone": "load-one", "load-one": "load-one", "load1": "load-one",
		"workefficient": "work-efficient", "we": "work-efficient",
		"twolevel": "two-level", "2l": "two-level", "TwoLevel": "two-level",
	}
	for in, want := range good {
		v, err := parseVariant(in)
		if err != nil || v.String() != want {
			t.Errorf("parseVariant(%q) = %v, %v", in, v, err)
		}
	}
	if _, err := parseVariant("bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func buildHost(t *testing.T, args ...string) *hostFlags {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	hf := addHostFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return hf
}

func TestHostFlagsBuild(t *testing.T) {
	for _, kind := range []string{"line", "ring", "mesh", "torus", "hypercube", "btree", "random", "ccc", "h1", "h2", "cliquechain"} {
		hf := buildHost(t, "-host", kind, "-n", "64")
		g, err := hf.build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.NumNodes() < 8 {
			t.Fatalf("%s: %d nodes", kind, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Fatalf("%s: disconnected", kind)
		}
	}
	hf := buildHost(t, "-host", "nonsense")
	if _, err := hf.build(); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestHostFlagsDelaySources(t *testing.T) {
	for _, d := range []string{"const", "uniform", "bimodal", "pareto", "exp"} {
		hf := buildHost(t, "-delay", d, "-n", "32")
		g, err := hf.build()
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if g.MaxDelay() < 1 {
			t.Fatalf("%s: no delays", d)
		}
	}
}

func TestHostFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "host.json")
	if err := os.WriteFile(path, []byte(`{"nodes":3,"links":[[0,1,2],[1,2,5]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hf := buildHost(t, "-host", "@"+path)
	g, err := hf.build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.MaxDelay() != 5 {
		t.Fatalf("loaded %v", g)
	}
	hf = buildHost(t, "-host", "@"+filepath.Join(dir, "missing.json"))
	if _, err := hf.build(); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSpark(t *testing.T) {
	s := spark([]float64{0, 0.5, 1, -3, 9})
	if len([]rune(s)) != 5 {
		t.Fatalf("spark %q", s)
	}
	r := []rune(s)
	if r[0] != ' ' || r[2] != '@' || r[3] != ' ' || r[4] != '@' {
		t.Fatalf("spark clamps wrong: %q", s)
	}
}

// Smoke tests: drive each subcommand's implementation directly on tiny
// inputs (they print to stdout, which `go test` captures).
func TestSubcommandSmoke(t *testing.T) {
	if err := cmdPlan([]string{"-host", "line", "-n", "64"}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := cmdLower([]string{"-host", "h1", "-n", "64"}); err != nil {
		t.Fatalf("lower h1: %v", err)
	}
	if err := cmdLower([]string{"-host", "h2", "-n", "64"}); err != nil {
		t.Fatalf("lower h2: %v", err)
	}
	if err := cmdLower([]string{"-host", "zzz"}); err == nil {
		t.Fatal("bad lower host accepted")
	}
	if err := cmdGuest([]string{"-guest", "tree", "-gn", "4", "-host", "line", "-n", "32", "-steps", "3"}); err != nil {
		t.Fatalf("guest: %v", err)
	}
	if err := cmdGuest([]string{"-guest", "zzz"}); err == nil {
		t.Fatal("bad guest accepted")
	}
	if err := cmdGuest([]string{"-guest", "ring", "-gn", "12", "-layout", "zzz"}); err == nil {
		t.Fatal("bad layout accepted")
	}
	if err := cmdRun([]string{"-host", "line", "-n", "48", "-steps", "8", "-variant", "loadone"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cmdRun([]string{"-host", "line", "-n", "48", "-steps", "8", "-variant", "loadone", "-trace"}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if err := cmdTopo([]string{"-host", "ring", "-n", "32", "-tree"}); err != nil {
		t.Fatalf("topo: %v", err)
	}
	if err := cmdSweep([]string{"-host", "line", "-from", "32", "-to", "64", "-steps", "4", "-csv"}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := cmdExp([]string{"-only", "E10"}); err != nil {
		t.Fatalf("exp: %v", err)
	}
	if err := cmdExp([]string{"-only", "E99"}); err == nil {
		t.Fatal("bad experiment accepted")
	}
	if err := cmdExp([]string{"-scale", "zzz"}); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// The trace subcommand must emit a structurally valid Chrome trace-event
// file plus the JSON summary and CSV exports.
func TestTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	sumPath := filepath.Join(dir, "summary.json")
	csvPath := filepath.Join(dir, "links.csv")
	err := cmdTrace([]string{
		"-host", "random", "-n", "64", "-steps", "8",
		"-out", tracePath, "-summary", sumPath, "-csv", csvPath, "-heatmap",
	})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	for _, field := range []string{"ph", "ts", "pid", "tid"} {
		if _, ok := doc.TraceEvents[0][field]; !ok {
			t.Fatalf("chrome event missing %q: %v", field, doc.TraceEvents[0])
		}
	}
	sumRaw, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]interface{}
	if err := json.Unmarshal(sumRaw, &sum); err != nil {
		t.Fatalf("summary not valid JSON: %v", err)
	}
	if _, ok := sum["bandwidthShare"]; !ok {
		t.Fatalf("summary missing bandwidthShare: %v", sum)
	}
	csvRaw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "link,dir,") {
		t.Fatalf("links CSV malformed: %q", lines[0])
	}
}

// chunkTable's layout is a contract with everything that scrapes latencysim
// output, so the rendering of a fixed shard set is pinned exactly. Shards
// are hand-built: a table from a live run would leak wall-clock fields
// (blocked_ms) into the golden.
func TestChunkTableGolden(t *testing.T) {
	shard := func(label string, pebbles, flushes, msgs, parks, blockedNs int64) telemetry.ShardSnapshot {
		return telemetry.ShardSnapshot{Label: label, Snapshot: &telemetry.Snapshot{Counters: map[string]int64{
			"pebbles_computed": pebbles, "boundary_flushes": flushes, "boundary_msgs": msgs,
			"worker_parks": parks, "worker_blocked_ns": blockedNs,
		}}}
	}
	var buf strings.Builder
	chunkTable([]telemetry.ShardSnapshot{
		shard("chunk[0,512)", 1000, 8, 24, 3, 1500000),
		shard("chunk[512,1024)", 2000, 10, 10, 0, 0),
	}).Fprint(&buf)
	want := strings.Join([]string{
		"## parallel chunks (engine telemetry)",
		"chunk  hosts     pebbles  flushes  msgs/flush  blocked  blocked_ms",
		"-----  --------  -------  -------  ----------  -------  ----------",
		"0      0-512     1000     8        3.000       3        1.500",
		"1      512-1024  2000     10       1.000       0        0",
		"note: 3000 pebbles across 2 chunks; 34 boundary messages coalesced into 18 updates (1.9 msgs/update)",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("chunk table changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// No flushes: the note must not divide by zero.
	buf.Reset()
	chunkTable([]telemetry.ShardSnapshot{shard("chunk[0,4)", 5, 0, 0, 0, 0)}).Fprint(&buf)
	if !strings.Contains(buf.String(), "no boundary batches shipped") {
		t.Fatalf("flushless note wrong:\n%s", buf.String())
	}
}

// exp -csvdir writes each of the experiment's tables as a CSV file, and -o
// writes them to a file.
func TestExpCSVDir(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return cmdExp([]string{"-only", "E10", "-csvdir", dir})
	})
	raw, err := os.ReadFile(filepath.Join(dir, "E10.csv"))
	if err != nil {
		t.Fatalf("exp -csvdir: %v (output %q)", err, out)
	}
	if lines := strings.Split(strings.TrimSpace(string(raw)), "\n"); len(lines) < 2 || !strings.Contains(lines[0], ",") {
		t.Fatalf("E10.csv is not a CSV table:\n%s", raw)
	}
	if !strings.Contains(out, "wrote E10.csv") {
		t.Fatalf("exp -csvdir did not report the file: %q", out)
	}
	// -o writes the rendered tables under a title instead of stdout.
	md := filepath.Join(dir, "data.md")
	if err := cmdExp([]string{"-only", "E10", "-md", "-o", md}); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(md); err != nil || !strings.HasPrefix(string(raw), "# Experiment data (quick scale)") ||
		!strings.Contains(string(raw), "=== E10:") {
		t.Fatalf("exp -o wrote %q, %v", raw, err)
	}
}

// Flag validation must reject bad inputs with one-line errors before any
// simulation starts.
func TestValidateRunFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		workers int
		out     string
		faults  string
		adapt   string
		wantErr string // substring; empty = must succeed
	}{
		{"defaults", 0, "", "", "", ""},
		{"workers ok", 4, "", "", "", ""},
		{"negative workers", -1, "", "", "", "-workers"},
		{"out in existing dir", 0, filepath.Join(dir, "t.json"), "", "", ""},
		{"out in missing dir", 0, filepath.Join(dir, "nope", "t.json"), "", "", "does not exist"},
		{"out under a file", 0, filepath.Join(file, "t.json"), "", "", "not a directory"},
		{"good faults", 0, "", "7:outage=0.1x8;crash=3@40", "", ""},
		{"all fault kinds", 0, "", "1:jitter=4@0.5;spike=32@0.01~1.5;outage=0.2x6#2;drift=0.2x8/4;churn=12x4#1;slow=0.3x8/0#1;crash=0@9", "", ""},
		{"faults missing seed", 0, "", "outage=0.1x8", "", "-faults"},
		{"faults bad kind", 0, "", "7:meteor=1", "", "-faults"},
		{"faults bad fraction", 0, "", "7:outage=1.5x8", "", "-faults"},
		{"faults garbage", 0, "", "::::", "", "-faults"},
		{"good adapt", 0, "", "", "epoch=64,thresh=0.35,extra=2,budget=8", ""},
		{"adapt mode any without faults", 0, "", "", "epoch=64,mode=any", ""},
		{"adapt mode fault with faults", 0, "", "7:churn=12x4", "epoch=64,mode=fault", ""},
		{"adapt mode fault without faults", 0, "", "", "epoch=64,mode=fault", "mode=fault requires a -faults plan"},
		{"adapt missing epoch", 0, "", "", "thresh=0.5", "-adapt"},
		{"adapt bad key", 0, "", "", "epoch=64,zeal=9", "-adapt"},
		{"adapt bad epoch", 0, "", "", "epoch=0", "-adapt"},
	}
	for _, tc := range cases {
		plan, pol, err := validateRunFlags(tc.workers, tc.out, tc.faults, tc.adapt)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			if tc.faults != "" && plan == nil {
				t.Errorf("%s: no plan parsed", tc.name)
			}
			if tc.faults == "" && plan != nil {
				t.Errorf("%s: plan from empty spec", tc.name)
			}
			if tc.adapt != "" && pol == nil {
				t.Errorf("%s: no policy parsed", tc.name)
			}
			if tc.adapt == "" && pol != nil {
				t.Errorf("%s: policy from empty spec", tc.name)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: bad input accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(tc.name, "faults") || err == nil {
			continue
		}
		if strings.Count(err.Error(), "\n") != 0 {
			t.Errorf("%s: error is not one line: %q", tc.name, err)
		}
	}
}

// The verify subcommand's soak summary is deterministic for a fixed seed
// and scenario count, so it is pinned as a golden file.
func TestVerifySubcommandGolden(t *testing.T) {
	var sb strings.Builder
	if err := runVerify([]string{"-seed", "1", "-n", "8"}, &sb); err != nil {
		t.Fatalf("verify: %v", err)
	}
	checkGolden(t, "verify_summary", sb.String())
}

// Every flag-validation failure across run/trace/verify must be a one-line
// error; the exact wording is pinned as a golden file.
func TestFlagErrorsGolden(t *testing.T) {
	var sb strings.Builder
	collect := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: bad input accepted", label)
		}
		if strings.Count(err.Error(), "\n") != 0 {
			t.Fatalf("%s: error is not one line: %q", label, err)
		}
		fmt.Fprintf(&sb, "%s: %v\n", label, err)
	}
	_, _, err := validateRunFlags(-1, "", "", "")
	collect("run/trace -workers", err)
	_, _, err = validateRunFlags(0, filepath.Join("no", "such", "dir", "t.json"), "", "")
	collect("run/trace -trace-out", err)
	_, _, err = validateRunFlags(0, "", "outage=0.1x8", "")
	collect("run/trace -faults no seed", err)
	_, _, err = validateRunFlags(0, "", "7:meteor=1", "")
	collect("run/trace -faults bad kind", err)
	_, _, err = validateRunFlags(0, "", "", "epoch=0")
	collect("run/sweep -adapt bad epoch", err)
	_, _, err = validateRunFlags(0, "", "", "epoch=64,mode=fault")
	collect("run/sweep -adapt fault mode without -faults", err)
	collect("verify -n", runVerify([]string{"-n", "0"}, io.Discard))
	checkGolden(t, "flag_errors", sb.String())
}

// A negative -bw is an error (main exits 1), not a request for the default
// bandwidth.
func TestRunRejectsNegativeBandwidth(t *testing.T) {
	err := cmdRun([]string{"-host", "random", "-n", "32", "-steps", "8", "-bw", "-5"})
	if err == nil || !strings.Contains(err.Error(), "Bandwidth") {
		t.Fatalf("run -bw -5: got %v, want an error naming Bandwidth", err)
	}
}

// End-to-end: `run -manifest-out` must emit a manifest that passes the
// schema contract (parallel engine by default, so boundary telemetry is
// present), and `manifest -check` must accept it.
// Two runs of one configuration that differ only in where the manifest
// goes, or in the order their flags were given, carry the same config hash.
func TestRunManifestConfigHash(t *testing.T) {
	dir := t.TempDir()
	hash := func(name string, args ...string) string {
		path := filepath.Join(dir, name)
		if err := cmdRun(append(args, "-manifest-out", path)); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		m, err := telemetry.LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		return m.ConfigHash
	}
	a := hash("a.json", "-host", "line", "-n", "16", "-steps", "4", "-variant", "loadone")
	b := hash("b.json", "-steps", "4", "-variant", "loadone", "-n", "16", "-host", "line")
	if a != b {
		t.Fatalf("same config hashed %s and %s", a, b)
	}
	if c := hash("c.json", "-host", "line", "-n", "16", "-steps", "5", "-variant", "loadone"); c == a {
		t.Fatalf("different step counts share config hash %s", a)
	}
}

// The same fleet sweep written to two result stores is one configuration.
func TestFleetManifestConfigHash(t *testing.T) {
	dir := t.TempDir()
	hash := func(name string) string {
		path := filepath.Join(dir, name+".json")
		if err := cmdSweep([]string{"-fleet", "12", "-fleet-seed", "4", "-shards", "2", "-shard", "1",
			"-fleet-out", filepath.Join(dir, name+".jsonl"), "-manifest-out", path}); err != nil {
			t.Fatalf("sweep -fleet: %v", err)
		}
		m, err := telemetry.LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		return m.ConfigHash
	}
	if a, b := hash("a"), hash("b"); a != b {
		t.Fatalf("one fleet sweep into two stores hashed %s and %s", a, b)
	}
}

func TestRunManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := cmdRun([]string{"-host", "line", "-n", "64", "-steps", "16",
		"-variant", "loadone", "-manifest-out", path}); err != nil {
		t.Fatalf("run -manifest-out: %v", err)
	}
	m, err := telemetry.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest fails its own contract: %v", err)
	}
	if m.Command != "run" || m.Engine != "parallel" || m.Workers != 2 {
		t.Fatalf("manifest run identity wrong: command=%q engine=%q workers=%d",
			m.Command, m.Engine, m.Workers)
	}
	if m.Pebbles <= 0 || m.BytesPerPebble <= 0 {
		t.Fatalf("memory accounting missing: pebbles=%d bytes/pebble=%f",
			m.Pebbles, m.BytesPerPebble)
	}
	if m.Stalls == nil || m.Stalls.Busy != m.Pebbles {
		t.Fatalf("stall tiling missing or inconsistent: %+v (pebbles=%d)", m.Stalls, m.Pebbles)
	}
	if got := m.Metrics.Counter("pebbles_computed"); got != m.Pebbles {
		t.Fatalf("telemetry pebbles %d != result pebbles %d", got, m.Pebbles)
	}
	// The work section is the run's Result.Work: the same config run
	// directly, without telemetry or a recorder and on either engine,
	// gives the same record.
	g, err := buildHost(t, "-host", "line", "-n", "64").build()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		out, err := overlap.Simulate(g, overlap.Options{
			Variant: overlap.LoadOne, Steps: 16, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if m.Work == nil || *m.Work != out.Sim.Work {
			t.Fatalf("manifest work %+v != direct run's Result.Work %+v (workers %d)", m.Work, out.Sim.Work, workers)
		}
	}
	// Peak RSS is best-effort, but on Linux (where CI runs) it should be
	// real.
	if rss := m.Metrics.Gauge("rss_peak_bytes"); rss < 0 {
		t.Fatalf("rss_peak_bytes = %d, want >= 0", rss)
	} else if telemetry.ReadPeakRSS() > 0 && rss == 0 {
		t.Fatal("rss_peak_bytes = 0 although /proc reports a peak RSS")
	}
	if err := cmdManifest([]string{"-check", path}); err != nil {
		t.Fatalf("manifest -check: %v", err)
	}
	// An explicitly sequential run must also validate (boundary gauges exempt).
	seqPath := filepath.Join(dir, "seq.json")
	if err := cmdRun([]string{"-host", "line", "-n", "64", "-steps", "16",
		"-variant", "loadone", "-workers", "0", "-manifest-out", seqPath}); err != nil {
		t.Fatalf("sequential run -manifest-out: %v", err)
	}
	if err := cmdManifest([]string{"-check", seqPath}); err != nil {
		t.Fatalf("sequential manifest -check: %v", err)
	}
	if err := cmdManifest([]string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

// verify and sweep manifests must carry their per-command sections.
func TestVerifySweepManifests(t *testing.T) {
	dir := t.TempDir()
	vPath := filepath.Join(dir, "v.json")
	if err := runVerify([]string{"-seed", "1", "-n", "2", "-manifest-out", vPath}, io.Discard); err != nil {
		t.Fatalf("verify -manifest-out: %v", err)
	}
	vm, err := telemetry.LoadManifest(vPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Validate(); err != nil {
		t.Fatal(err)
	}
	if vm.Verify == nil || vm.Verify.Scenarios != 2 || vm.Verify.Events <= 0 {
		t.Fatalf("verify section wrong: %+v", vm.Verify)
	}
	sPath := filepath.Join(dir, "s.json")
	if err := cmdSweep([]string{"-host", "line", "-from", "32", "-to", "64",
		"-steps", "4", "-csv", "-manifest-out", sPath}); err != nil {
		t.Fatalf("sweep -manifest-out: %v", err)
	}
	sm, err := telemetry.LoadManifest(sPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sm.Sweep) != 2 || sm.Sweep[0].N != 32 || sm.Sweep[1].N != 64 {
		t.Fatalf("sweep points wrong: %+v", sm.Sweep)
	}
	if sm.Sweep[0].Pebbles <= 0 || sm.Pebbles != sm.Sweep[0].Pebbles+sm.Sweep[1].Pebbles {
		t.Fatalf("sweep pebble accounting wrong: total=%d points=%+v", sm.Pebbles, sm.Sweep)
	}
}

// The twin report over a fixed inline corpus is fully deterministic (no
// wall-clock in the table), so it is pinned as a golden file. This also
// gates the frozen constants: if someone edits them, every family must
// still clear its MAPE ceiling or runTwin errors here.
func TestTwinReportGolden(t *testing.T) {
	var sb strings.Builder
	if err := runTwin([]string{"-report", "-seed", "1", "-n", "60"}, &sb); err != nil {
		t.Fatalf("twin -report: %v", err)
	}
	checkGolden(t, "twin_report", sb.String())
}

func TestTwinFitGolden(t *testing.T) {
	var sb strings.Builder
	if err := runTwin([]string{"-fit", "-seed", "1", "-n", "60", "-csv"}, &sb); err != nil {
		t.Fatalf("twin -fit: %v", err)
	}
	checkGolden(t, "twin_fit", sb.String())
}

func TestTwinFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                     // neither -report nor -fit
		{"-report", "-fit"},    // both
		{"-report", "-n", "0"}, // empty inline corpus
		{"-report", "-store", filepath.Join(t.TempDir(), "*.jsonl")}, // glob matches nothing
	} {
		err := runTwin(args, io.Discard)
		if err == nil {
			t.Fatalf("twin %v accepted", args)
		}
		if strings.Count(err.Error(), "\n") != 0 {
			t.Fatalf("twin %v: error is not one line: %q", args, err)
		}
	}
}

// Fleet mode end-to-end through the CLI layer: a sharded run writes a
// resumable store, a re-run computes nothing new, and the console summary
// is pinned (with the temp path normalized out).
func TestFleetSweepGolden(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "shard0.jsonl")
	plan := fleet.Plan{Seed: 4, N: 20, Shards: 2, Shard: 0}
	var sb strings.Builder
	if err := runFleetSweep(&sb, plan, out, 2, nil, false); err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	if err := runFleetSweep(&sb, plan, out, 2, nil, false); err != nil {
		t.Fatalf("fleet resume: %v", err)
	}
	got := strings.ReplaceAll(sb.String(), out, "<store>")
	checkGolden(t, "fleet_sweep", got)

	// Shard parameter validation fails fast.
	if err := runFleetSweep(io.Discard, fleet.Plan{N: 4, Shards: 0}, out, 1, nil, false); err == nil {
		t.Fatal("shards=0 accepted")
	}
	if err := runFleetSweep(io.Discard, fleet.Plan{N: 4, Shards: 2, Shard: 2}, out, 1, nil, false); err == nil {
		t.Fatal("shard out of range accepted")
	}
}

// Sharded fleet stores feed twin -report through -store, and both commands
// carry their manifest sections.
func TestFleetTwinManifests(t *testing.T) {
	dir := t.TempDir()
	fPath := filepath.Join(dir, "fleet-manifest.json")
	if err := cmdSweep([]string{"-fleet", "12", "-fleet-seed", "4", "-shards", "2", "-shard", "1",
		"-fleet-out", filepath.Join(dir, "shard1.jsonl"), "-manifest-out", fPath}); err != nil {
		t.Fatalf("sweep -fleet -manifest-out: %v", err)
	}
	fm, err := telemetry.LoadManifest(fPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Validate(); err != nil {
		t.Fatal(err)
	}
	if fm.Fleet == nil || fm.Fleet.Seed != 4 || fm.Fleet.Shards != 2 || fm.Fleet.Shard != 1 ||
		fm.Fleet.Items <= 0 || fm.Fleet.Resumed != 0 {
		t.Fatalf("fleet section wrong: %+v", fm.Fleet)
	}
	if len(fm.Sweep) != 0 {
		t.Fatalf("fleet manifest has host-sweep points: %+v", fm.Sweep)
	}

	tPath := filepath.Join(dir, "twin-manifest.json")
	var sb strings.Builder
	if err := runTwin([]string{"-report", "-store", filepath.Join(dir, "*.jsonl"),
		"-manifest-out", tPath}, &sb); err != nil {
		t.Fatalf("twin -store: %v\n%s", err, sb.String())
	}
	tm, err := telemetry.LoadManifest(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tm.Twin) == 0 {
		t.Fatal("twin manifest has no family reports")
	}
	for _, f := range tm.Twin {
		if f.N > 0 && !f.Pass {
			t.Fatalf("family %s fails on its own fit corpus: %+v", f.Name, f)
		}
	}
}

// End-to-end: run with a fault plan completes and prints the plan; a
// malformed plan fails fast.
func TestRunWithFaults(t *testing.T) {
	if err := cmdRun([]string{"-host", "line", "-n", "48", "-steps", "8",
		"-variant", "loadone", "-faults", "7:outage=0.1x8"}); err != nil {
		t.Fatalf("run -faults: %v", err)
	}
	if err := cmdRun([]string{"-host", "line", "-n", "48",
		"-faults", "bogus"}); err == nil {
		t.Fatal("malformed -faults accepted")
	}
	if err := cmdRun([]string{"-host", "line", "-n", "48", "-workers", "-2"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
	if err := cmdTrace([]string{"-host", "line", "-n", "48", "-workers", "-2"}); err == nil {
		t.Fatal("trace: negative -workers accepted")
	}
}
