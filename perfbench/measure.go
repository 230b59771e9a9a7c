package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"latencyhide/internal/telemetry"
)

// Set-up repeats until it has run setupMinReps times and for setupMinTime,
// so that its median is taken over many samples even when one set-up
// takes well under a millisecond.
const (
	setupMinReps = 30
	setupMaxReps = 100000
	setupMinTime = 2 * time.Second
	minOps       = 3 // timed ops in an untraced run, however long each takes
	minPairs     = 2 // untraced/traced op pairs in a traced run
)

// cpuTime is the process's user plus system time, all threads included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative number of bytes the Go heap has allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is one timed op.
type sample struct {
	wallMS, cpuS, allocMB float64
}

// session is one run of one workload: its set-up times, its ops and the
// failures among them.
type session struct {
	inst      instance
	ref       outcome
	tr        *tracer // nil for an untraced run
	setupS    []float64
	plain     []sample // untraced ops
	tracedMS  []float64
	attempted int
	failed    int
	peakRSS   uint64
	log       io.Writer
}

// check counts one op against the reference outcome.
func (s *session) check(o outcome, err error) {
	s.attempted++
	if err == nil && o.fp != s.ref.fp {
		err = fmt.Errorf("output %q differs from the reference %q", o.fp, s.ref.fp)
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(s.log, "op %d failed: %v\n", s.attempted, err)
	}
}

// setup builds the workload repeatedly and keeps the last instance.
func (s *session) setup(w workload, seed int64, dir string) error {
	start := time.Now()
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || time.Since(start) < setupMinTime); rep++ {
		runtime.GC()
		if s.tr != nil {
			s.tr.beginOp(kindSetup, "setup")
		}
		t0 := time.Now()
		inst, err := w.setup(seed, dir, s.tr)
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		if s.tr != nil {
			s.tr.endOp()
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.inst = inst
	}
	return nil
}

// warmUp runs the reference op. Its outcome is what every later op must
// reproduce; if it fails, the run has no reference and every op fails.
func (s *session) warmUp() {
	runtime.GC()
	ref, err := s.inst.reference()
	s.attempted++
	if err != nil {
		s.failed++
		ref.fp = "no reference: " + err.Error()
		fmt.Fprintf(s.log, "reference op failed: %v\n", err)
	}
	s.ref = ref
}

// plainOp times one untraced op from a collected heap.
func (s *session) plainOp() {
	runtime.GC()
	cpu0, alloc0 := cpuTime(), heapAllocs()
	t0 := time.Now()
	o, err := s.inst.op(nil)
	wall := time.Since(t0)
	p := sample{
		wallMS:  float64(wall) / 1e6,
		cpuS:    (cpuTime() - cpu0).Seconds(),
		allocMB: float64(heapAllocs()-alloc0) / 1e6,
	}
	s.plain = append(s.plain, p)
	s.check(o, err)
	fmt.Fprintf(s.log, "op %d: %.1f ms wall, %.3f s CPU, %.1f MB allocated\n", s.attempted, p.wallMS, p.cpuS, p.allocMB)
}

// tracedOp times one op that records its spans.
func (s *session) tracedOp() {
	runtime.GC()
	s.tr.beginOp(kindOp, "op")
	t0 := time.Now()
	o, err := s.inst.op(s.tr)
	wall := time.Since(t0)
	s.tr.endOp()
	s.tracedMS = append(s.tracedMS, float64(wall)/1e6)
	s.check(o, err)
}

// measure runs timed ops for the given time. An untraced run times plain
// ops; a traced run alternates plain and traced ops, swapping their order
// each pair, then runs the workload's probe once. A new op starts only if
// the last one would still fit.
func (s *session) measure(seconds float64) {
	debug.FreeOSMemory() // so the warm-up's freed pages do not set the peak
	telemetry.ResetPeakRSS()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if s.tr == nil {
			if i >= minOps && time.Since(start)+last > budget {
				break
			}
			t0 := time.Now()
			s.plainOp()
			last = time.Since(t0)
			continue
		}
		if i >= minPairs && time.Since(start)+last > budget {
			break
		}
		t0 := time.Now()
		if i%2 == 0 {
			s.plainOp()
			s.tracedOp()
		} else {
			s.tracedOp()
			s.plainOp()
		}
		last = time.Since(t0)
	}
	s.peakRSS = telemetry.ReadPeakRSS()
	if s.tr != nil {
		runtime.GC()
		s.tr.beginOp(kindProbe, "probe")
		err := s.inst.probe(s.tr)
		s.tr.endOp()
		s.check(s.ref, err) // the probe counts as an op; only its error is checked
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the metrics of an untraced run.
func (s *session) endToEnd() map[string]metric {
	col := func(f func(sample) float64) []float64 {
		out := make([]float64, len(s.plain))
		for i, p := range s.plain {
			out[i] = f(p)
		}
		return out
	}
	p50 := median(col(func(p sample) float64 { return p.wallMS }))
	return map[string]metric{
		"setup_s":         {median(s.setupS), "s"},
		"op_ms.p50":       {p50, "ms"},
		"work_per_s":      {s.ref.work / (p50 / 1e3), "1/s"},
		"cpu_s_per_op":    {median(col(func(p sample) float64 { return p.cpuS })), "s"},
		"alloc_mb_per_op": {median(col(func(p sample) float64 { return p.allocMB })), "MB"},
		"peak_rss_mb":     {float64(s.peakRSS) / 1e6, "MB"},
		"slowdown":        {s.ref.slowdown, "ratio"},
	}
}

// layerUnits lists every per-layer metric with its unit. Layers a
// workload does not reach report 0.
var layerUnits = []struct{ name, unit string }{
	{"network.build_ms", "ms"},
	{"embedding.embed_ms", "ms"},
	{"tree.build_ms", "ms"},
	{"assign.build_ms", "ms"},
	{"assign.replicas", "count"},
	{"sim.run_ms", "ms"},
	{"sim.runs", "count"},
	{"sim.pebbles", "count"},
	{"sim.messages", "count"},
	{"sim.hops", "count"},
	{"sim.host_steps", "count"},
	{"sim.pebbles_per_s", "1/s"},
	{"sim.useful_ratio", "ratio"},
	{"sim.alloc_mb", "MB"},
	{"sim.cpu_per_wall", "ratio"},
	{"guest.ref_ms", "ms"},
	{"guest.ref_pebbles", "count"},
	{"obs.events", "count"},
	{"verify.generate_ms", "ms"},
	{"verify.check_ms", "ms"},
	{"verify.build_ms", "ms"},
	{"verify.oracle_ms", "ms"},
	{"verify.oracle_events_per_s", "1/s"},
	{"verify.scenarios", "count"},
	{"verify.relations", "count"},
	{"twin.floors_ms", "ms"},
	{"twin.floors_calls", "count"},
	{"twin.report_ms", "ms"},
	{"twin.mape", "ratio"},
	{"fleet.measure_ms", "ms"},
	{"fleet.items", "count"},
	{"fleet.append_ms", "ms"},
	{"fleet.sync_ms", "ms"},
	{"fleet.read_ms", "ms"},
	{"fleet.store_bytes", "bytes"},
	{"trace.ops", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// derive sets v[name] to scale*v[num]/v[den] when the denominator is
// non-zero.
func derive(v map[string]float64, name, num, den string, scale float64) {
	if d := v[den]; d != 0 {
		v[name] = scale * v[num] / d
	}
}

// perLayer computes the metrics of a traced run: each value is the median
// over the ops (set-ups, traced ops or probes) that recorded it.
func (s *session) perLayer() (map[string]metric, map[string]float64) {
	byName := map[string][]float64{}
	var coverage []float64
	for _, o := range s.tr.summarize() {
		v := o.values
		derive(v, "sim.pebbles_per_s", "sim.pebbles", "sim.run_ms", 1e3)
		derive(v, "sim.useful_ratio", "sim.guest_work", "sim.pebbles", 1)
		derive(v, "sim.cpu_per_wall", "sim.cpu_ms", "sim.run_ms", 1)
		derive(v, "verify.oracle_events_per_s", "verify.oracle_events", "verify.oracle_ms", 1e3)
		for k, x := range v {
			byName[k] = append(byName[k], x)
		}
		if o.kind == kindOp {
			coverage = append(coverage, o.coverage)
		}
	}
	all := map[string]float64{}
	for k, xs := range byName {
		all[k] = median(xs)
	}
	all["trace.ops"] = float64(len(s.tracedMS))
	all["trace.coverage"] = median(coverage)
	plain := make([]float64, len(s.plain))
	for i, p := range s.plain {
		plain[i] = p.wallMS
	}
	if p := median(plain); p > 0 {
		all["trace.overhead_ratio"] = median(s.tracedMS) / p
	}
	out := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = metric{all[l.name], l.unit}
	}
	return out, all
}
