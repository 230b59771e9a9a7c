package telemetry

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"

	"latencyhide/internal/obs"
)

// ManifestSchema identifies the manifest format; bump the suffix on
// incompatible changes so downstream tooling (sweep result stores,
// `latencysim manifest -check`) can dispatch.
const ManifestSchema = "latencyhide/run-manifest/v1"

// SweepPoint is one row of a sweep manifest.
type SweepPoint struct {
	N           int     `json:"n"`
	Slowdown    float64 `json:"slowdown"`
	Efficiency  float64 `json:"efficiency"`
	Pebbles     int64   `json:"pebbles"`
	WallSeconds float64 `json:"wall_seconds"`
}

// ExpTiming is one experiment's wall time in an exp manifest.
type ExpTiming struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
}

// FleetSummary is the fleet-sweep section of a manifest: one shard of a
// sharded scenario sweep (see internal/fleet).
type FleetSummary struct {
	Seed uint64 `json:"seed"`
	N    int    `json:"n"` // generator scenarios in the plan
	// Shards/Shard identify this worker's slice of the plan.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
	// Items is the shard's item count; Resumed how many were already in
	// the store when the run started (skipped, not recomputed).
	Items   int    `json:"items"`
	Resumed int    `json:"resumed"`
	Store   string `json:"store"`
}

// TwinFamily is one theorem family's score in a twin-report manifest.
type TwinFamily struct {
	Name           string  `json:"name"`
	N              int     `json:"n"`
	MAPE           float64 `json:"mape"`
	Ceiling        float64 `json:"ceiling"`
	InBand         float64 `json:"in_band"`
	CertViolations int     `json:"cert_violations"`
	Pass           bool    `json:"pass"`
}

// VerifySummary is the verify-soak section of a manifest.
type VerifySummary struct {
	Seed      uint64         `json:"seed"`
	Scenarios int            `json:"scenarios"`
	Events    int64          `json:"events"`
	Relations map[string]int `json:"relations,omitempty"`
	Failures  int            `json:"failures"`
}

// Work is the engine's deterministic work record for one run (sim.Result's
// Work field): counts and peaks that equal configurations reproduce exactly
// on either engine and any worker count. The JSON tags are the figures'
// names everywhere: the manifest's work section and the golden counter
// file. Renaming one is a schema change.
type Work struct {
	WaiterPoolHits  int64 `json:"waiter_pool_hits"`  // waiter nodes recycled from the freelist
	WaiterPoolGrows int64 `json:"waiter_pool_grows"` // waiter nodes that grew the pool
	KnowRingGrows   int64 `json:"know_ring_grows"`   // knowledge rings that outgrew their window
	KnowRingShrinks int64 `json:"know_ring_shrinks"` // knowledge rings shrunk back after a spike
	// Peaks over workstations: live knowledge slots, allocated ring slots,
	// and unretired steps behind a column's frontier.
	KnowLivePeak      int64 `json:"know_live_peak"`
	KnowSlotsPeak     int64 `json:"know_slots_peak"`
	KnowRetireLagPeak int64 `json:"know_retire_lag_peak"`
	// KnowRingBytesPeak sums every workstation's peak ring footprint: an
	// upper bound on the run's simultaneous knowledge-ring bytes.
	KnowRingBytesPeak int64 `json:"know_ring_bytes_peak"`
	// CalOverflowEvents counts link crossings whose arrival lies a calendar
	// ring span or more after their send step (the overflow-heap path).
	CalOverflowEvents int64 `json:"cal_overflow_events"`
	RouteBytes        int64 `json:"route_bytes"` // resident footprint of the route table
}

// RunManifest is the machine-readable record of one latencysim invocation:
// what ran (config hash + scenario spec), on which engine, how long it took,
// the engine's deterministic work (run only), what the engine's telemetry
// registry measured, how memory evolved, and where the time went (run only:
// the stall tiling and the critical path, the two views that tell the
// Theorem 2 bound's latency term from its bandwidth term). `latencysim run|sweep|exp|verify|twin -manifest-out` emit it;
// `latencysim manifest -check` validates it; fleet sweeps record their shard
// plan and store path in the Fleet section and twin reports their
// per-theorem scores in the Twin section.
type RunManifest struct {
	Schema     string `json:"schema"`
	Command    string `json:"command"`
	ConfigHash string `json:"config_hash"`
	Scenario   string `json:"scenario"`
	StartedAt  string `json:"started_at"` // RFC3339

	Engine  string `json:"engine"` // "sequential" | "parallel"
	Workers int    `json:"workers"`

	WallSeconds float64 `json:"wall_seconds"`
	GuestSteps  int     `json:"guest_steps,omitempty"`
	HostSteps   int64   `json:"host_steps,omitempty"`
	Slowdown    float64 `json:"slowdown,omitempty"`

	Pebbles        int64   `json:"pebbles,omitempty"`
	PebblesPerSec  float64 `json:"pebbles_per_sec,omitempty"`
	BytesPerPebble float64 `json:"bytes_per_pebble,omitempty"` // allocated bytes / pebble
	PeakRSSBytes   uint64  `json:"peak_rss_bytes,omitempty"`

	Work    *Work     `json:"work,omitempty"`
	Metrics *Snapshot `json:"metrics,omitempty"`

	MemSeries []MemSample `json:"mem_series,omitempty"`

	Stalls       *obs.StallBreakdown `json:"stalls,omitempty"`
	CriticalPath *obs.CriticalPath   `json:"critical_path,omitempty"`

	Sweep       []SweepPoint   `json:"sweep,omitempty"`
	Experiments []ExpTiming    `json:"experiments,omitempty"`
	Verify      *VerifySummary `json:"verify,omitempty"`
	Fleet       *FleetSummary  `json:"fleet,omitempty"`
	Twin        []TwinFamily   `json:"twin,omitempty"`
}

// ConfigHash hashes a command's resolved configuration into a stable
// identifier, so result stores can key on "same configuration" without
// parsing flags. It hashes the command, then every flag of the parsed set
// as name=value in name order — defaults included, the flags named in skip
// excluded — then the positional arguments. Flag order, spelling
// (-n 256 vs -n=256) and whether a default was given explicitly do not
// change the hash; any change to a resolved, unskipped value does. Callers
// skip the flags that choose where outputs go or how progress is shown,
// never what runs.
func ConfigHash(command string, fs *flag.FlagSet, skip ...string) string {
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	h := fnv.New64a()
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	field(command)
	fs.VisitAll(func(f *flag.Flag) {
		if !skipped[f.Name] {
			field(f.Name + "=" + f.Value.String())
		}
	})
	field("--")
	for _, a := range fs.Args() {
		field(a)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteFile writes the manifest as indented JSON.
func (m *RunManifest) WriteFile(path string) error {
	if m.Schema == "" {
		m.Schema = ManifestSchema
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadManifest reads and decodes a manifest file.
func LoadManifest(path string) (*RunManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &m, nil
}

// Validate checks the manifest's structural contract: correct schema id, a
// known command, and, for a run, nonzero run figures, the work section, the
// engine's progress counter, and stall and critical-path sections that tile
// as package obs documents (busy+idle+dependency+bandwidth+fault ==
// proc_steps, compute+transit+queue+wait == length). Parallel runs must
// additionally carry SPSC ring occupancy and published-clock lag; the
// sequential engine has no boundary rings, so those are exempt.
func (m *RunManifest) Validate() error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if m.Schema != ManifestSchema {
		fail("schema %q != %q", m.Schema, ManifestSchema)
	}
	switch m.Command {
	case "run", "sweep", "exp", "verify", "twin":
	default:
		fail("unknown command %q", m.Command)
	}
	if m.ConfigHash == "" {
		fail("missing config_hash")
	}
	if m.WallSeconds <= 0 {
		fail("wall_seconds must be > 0")
	}
	switch m.Command {
	case "run":
		if m.Engine != "sequential" && m.Engine != "parallel" {
			fail("engine %q (want sequential or parallel)", m.Engine)
		}
		if m.Pebbles <= 0 {
			fail("pebbles must be > 0")
		}
		if m.BytesPerPebble <= 0 {
			fail("bytes_per_pebble must be > 0")
		}
		// Every run holds knowledge rings and builds a route table, so
		// both footprints must be reported.
		if m.Work == nil {
			fail("missing work section")
		} else {
			if m.Work.KnowRingBytesPeak <= 0 {
				fail("work know_ring_bytes_peak must be > 0")
			}
			if m.Work.RouteBytes <= 0 {
				fail("work route_bytes must be > 0")
			}
		}
		if s := m.Stalls; s == nil {
			fail("missing stalls section")
		} else if sum := s.Busy + s.Idle + s.Dependency + s.Bandwidth + s.Fault; sum != s.ProcSteps {
			fail("stalls busy+idle+dependency+bandwidth+fault = %d != proc_steps %d", sum, s.ProcSteps)
		}
		if cp := m.CriticalPath; cp == nil {
			fail("missing critical_path section")
		} else if sum := cp.Compute + cp.Transit + cp.Queue + cp.Wait; sum != cp.Length {
			fail("critical_path compute+transit+queue+wait = %d != length %d", sum, cp.Length)
		}
		if m.Metrics == nil {
			fail("missing metrics snapshot")
		} else {
			if m.Metrics.Counters.PebblesComputed <= 0 {
				fail("counter pebbles_computed must be > 0")
			}
			if m.Engine == "parallel" {
				if m.Metrics.Gauges.RingOccupancyPeak <= 0 {
					fail("gauge ring_occupancy_peak must be > 0 on the parallel engine")
				}
				if m.Metrics.Gauges.PubclockLagMax <= 0 {
					fail("gauge pubclock_lag_max must be > 0 on the parallel engine")
				}
			}
		}
	case "sweep":
		if m.Fleet != nil {
			if m.Fleet.Items <= 0 {
				fail("fleet items must be > 0")
			}
			if m.Fleet.Shards > 0 && (m.Fleet.Shard < 0 || m.Fleet.Shard >= m.Fleet.Shards) {
				fail("fleet shard %d outside [0,%d)", m.Fleet.Shard, m.Fleet.Shards)
			}
		} else if len(m.Sweep) == 0 {
			fail("sweep manifest has no points")
		}
	case "twin":
		if len(m.Twin) == 0 {
			fail("twin manifest has no family reports")
		}
	case "exp":
		if len(m.Experiments) == 0 {
			fail("exp manifest has no experiment timings")
		}
	case "verify":
		if m.Verify == nil {
			fail("verify manifest has no verify section")
		} else if m.Verify.Scenarios <= 0 {
			fail("verify scenarios must be > 0")
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("manifest invalid:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}
