package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"latencyhide/internal/telemetry"
)

// mrun carries the telemetry plumbing for one CLI invocation that asked for a
// machine-readable run manifest (-manifest-out) and/or a live status line
// (-live): the metrics registry handed to the engine, the memory sampler, the
// repainting TTY line, and the manifest being assembled. A nil *mrun is a
// valid no-op on every method, so command bodies call it unconditionally.
type mrun struct {
	path    string
	reg     *telemetry.Registry
	sampler *telemetry.Sampler
	live    *telemetry.Live
	start   time.Time
	alloc0  uint64
	m       *telemetry.RunManifest
}

// outputOnlyFlags names the flags of run, sweep, exp, verify and twin that
// choose where outputs go or how progress is shown, never what runs. The
// manifest's config hash leaves them out, so one configuration written to
// two paths keeps one hash.
var outputOnlyFlags = []string{"manifest-out", "live", "trace-out", "profile", "fleet-out"}

// manifestFlags registers the shared -manifest-out / -live flags.
func manifestFlags(fs *flag.FlagSet) (manifestOut *string, live *bool) {
	manifestOut = fs.String("manifest-out", "",
		"write a machine-readable run manifest (JSON) to this file")
	live = fs.Bool("live", false,
		"render a refreshing status line (pebbles/sec, ETA, progress) while running")
	return
}

// startMRun begins manifest/live capture for one command invocation. fs is
// the command's parsed flag set, whose resolved values (output-only flags
// aside) are hashed into the config identity. Returns nil — a no-op — when neither flag was given.
func startMRun(command string, fs *flag.FlagSet, manifestOut string, live bool) *mrun {
	if manifestOut == "" && !live {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := &mrun{
		path:   manifestOut,
		reg:    telemetry.NewRegistry(),
		start:  time.Now(),
		alloc0: ms.TotalAlloc,
		m: &telemetry.RunManifest{
			Schema:     telemetry.ManifestSchema,
			Command:    command,
			ConfigHash: telemetry.ConfigHash(command, fs, outputOnlyFlags...),
			StartedAt:  time.Now().UTC().Format(time.RFC3339),
		},
	}
	return r
}

// registry returns the engine registry to attach to the run (nil when no
// capture is active, which disables engine telemetry entirely).
func (r *mrun) registry() *telemetry.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// active reports whether a manifest file was requested.
func (r *mrun) active() bool { return r != nil && r.path != "" }

// startSampling launches the periodic memory sampler. Call after the engine
// registry is wired so progress (pebbles_computed) lands in the series.
func (r *mrun) startSampling() {
	if r == nil {
		return
	}
	r.sampler = telemetry.StartSampler(r.reg, 0)
}

// startLive begins repainting the status line with render (no-op unless
// -live was given).
func (r *mrun) startLive(enabled bool, render func() string) {
	if r == nil || !enabled {
		return
	}
	r.live = telemetry.StartLive(os.Stderr, 0, render)
}

// engineStatus is the default -live renderer for engine-backed commands:
// pebble progress against the registered total, throughput, and ETA.
func (r *mrun) engineStatus() string {
	snap := r.reg.Snapshot()
	done := snap.Counter("pebbles_computed")
	total := snap.Counter("pebbles_total")
	elapsed := time.Since(r.start)
	rate := float64(done) / elapsed.Seconds()
	return fmt.Sprintf("run: %d/%d pebbles  %s  eta %s",
		done, total, telemetry.Rate(rate), telemetry.ETA(done, total, elapsed))
}

// stopLive halts the status line (idempotent; safe on nil). Call before
// printing normal output so the repainting line cannot interleave with it.
func (r *mrun) stopLive() {
	if r == nil || r.live == nil {
		return
	}
	r.live.Stop()
	r.live = nil
}

// finish stops the live line and the sampler, fills the cross-command
// manifest fields (wall time, metric snapshot, memory series, peak RSS,
// bytes/pebble from the pebble count the caller stored in m.Pebbles), and
// writes the manifest when -manifest-out was given. Safe on nil.
func (r *mrun) finish() error {
	if r == nil {
		return nil
	}
	r.stopLive()
	if r.sampler != nil {
		r.m.MemSeries = r.sampler.Stop()
	}
	r.m.WallSeconds = time.Since(r.start).Seconds()
	r.m.Metrics = r.reg.Snapshot()
	r.m.PeakRSSBytes = telemetry.ReadPeakRSS()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if r.m.Pebbles > 0 {
		r.m.PebblesPerSec = float64(r.m.Pebbles) / r.m.WallSeconds
		r.m.BytesPerPebble = float64(ms.TotalAlloc-r.alloc0) / float64(r.m.Pebbles)
	}
	if r.path == "" {
		return nil
	}
	if err := r.m.WriteFile(r.path); err != nil {
		return err
	}
	fmt.Printf("manifest: wrote %s\n", r.path)
	return nil
}

// cmdManifest inspects and validates manifests written by the other
// commands: `latencysim manifest -check m.json` exits non-zero when the file
// violates the schema contract (the CI telemetry-smoke job hangs off this).
func cmdManifest(args []string) error {
	fs := flag.NewFlagSet("manifest", flag.ExitOnError)
	check := fs.Bool("check", false, "validate the manifest against the schema contract")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: latencysim manifest [-check] <file.json>")
	}
	m, err := telemetry.LoadManifest(fs.Arg(0))
	if err != nil {
		return err
	}
	if *check {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	fmt.Printf("schema:   %s\n", m.Schema)
	fmt.Printf("command:  %s  (config %s)\n", m.Command, m.ConfigHash)
	if m.Scenario != "" {
		fmt.Printf("scenario: %s\n", m.Scenario)
	}
	if m.Engine != "" {
		fmt.Printf("engine:   %s workers=%d\n", m.Engine, m.Workers)
	}
	fmt.Printf("wall:     %.3fs\n", m.WallSeconds)
	if m.Pebbles > 0 {
		fmt.Printf("pebbles:  %d  (%s, %.1f B/pebble)\n",
			m.Pebbles, telemetry.Rate(m.PebblesPerSec), m.BytesPerPebble)
	}
	if m.PeakRSSBytes > 0 {
		fmt.Printf("peak rss: %.1f MiB\n", float64(m.PeakRSSBytes)/(1<<20))
	}
	if m.Stalls != nil {
		s := m.Stalls
		fmt.Printf("stalls:   busy=%d idle=%d dep=%d bw=%d fault=%d of %d proc-steps\n",
			s.Busy, s.Idle, s.Dependency, s.Bandwidth, s.Fault, s.ProcSteps)
	}
	if m.Work != nil {
		work, err := json.Marshal(m.Work)
		if err != nil {
			return err
		}
		fmt.Printf("work:     %s\n", work)
	}
	if m.Metrics != nil {
		names := make([]string, 0, len(m.Metrics.Counters))
		for n := range m.Metrics.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("counters:\n")
		for _, n := range names {
			fmt.Printf("  %-24s %d\n", n, m.Metrics.Counters[n])
		}
		names = names[:0]
		for n := range m.Metrics.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("gauges:\n")
		for _, n := range names {
			fmt.Printf("  %-24s %d\n", n, m.Metrics.Gauges[n])
		}
	}
	if len(m.Sweep) > 0 {
		fmt.Printf("sweep:    %d points\n", len(m.Sweep))
	}
	if len(m.Experiments) > 0 {
		fmt.Printf("exp:      %d experiments timed\n", len(m.Experiments))
	}
	if m.Verify != nil {
		fmt.Printf("verify:   seed=%d scenarios=%d events=%d failures=%d\n",
			m.Verify.Seed, m.Verify.Scenarios, m.Verify.Events, m.Verify.Failures)
	}
	if *check {
		fmt.Println("manifest: OK")
	}
	return nil
}
