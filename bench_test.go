// Benchmarks: one per paper experiment (E1-E12, DESIGN.md's per-experiment
// index) plus engine micro-benchmarks. Each experiment bench runs the
// core measurement of its table and reports the headline figure (usually
// the slowdown) via b.ReportMetric, so `go test -bench=.` regenerates the
// shape of every paper result.
package latencyhide_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"latencyhide"
	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/baseline"
	"latencyhide/internal/dataflow"
	"latencyhide/internal/expt"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/layout"
	"latencyhide/internal/lower"
	"latencyhide/internal/mesharray"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/overlap"
	"latencyhide/internal/sim"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/tree"
	"latencyhide/internal/uniform"
)

func delaysOf(g *network.Network) []int {
	out := make([]int, g.NumLinks())
	for i, e := range g.Edges() {
		out[i] = e.Delay
	}
	return out
}

func nowLine(n int, seed int64) []int {
	far := n / 4
	if far < 4 {
		far = 4
	}
	return delaysOf(network.Line(n, network.BimodalDelay{Near: 1, Far: far, P: 1 / float64(far)}, seed))
}

// BenchmarkE1OverlapSlowdown — Theorem 2: load-one OVERLAP vs host size.
func BenchmarkE1OverlapSlowdown(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			delays := nowLine(n, int64(n))
			var slow float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.SimulateLine(delays, overlap.Options{
					Variant: overlap.LoadOne, Steps: 48, Seed: 11,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = out.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE2WorkEfficient — Theorem 3: blocked OVERLAP, efficiency.
func BenchmarkE2WorkEfficient(b *testing.B) {
	delays := nowLine(512, 5)
	for _, beta := range []int{2, 8} {
		b.Run(fmt.Sprintf("beta=%d", beta), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.SimulateLine(delays, overlap.Options{
					Variant: overlap.WorkEfficient, Beta: beta, Steps: 32, Seed: 21,
				})
				if err != nil {
					b.Fatal(err)
				}
				eff = out.Efficiency()
			}
			b.ReportMetric(eff, "efficiency")
		})
	}
}

// BenchmarkE3UniformSqrtD — Theorem 4: the 5d-per-sqrt(d)-steps schedule.
func BenchmarkE3UniformSqrtD(b *testing.B) {
	for _, d := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := uniform.Run(16, d, 3, 0, 51)
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE4Combined — Theorem 5: two-level composition vs d_ave.
func BenchmarkE4Combined(b *testing.B) {
	for _, mean := range []float64{4, 16} {
		b.Run(fmt.Sprintf("dave=%.0f", mean), func(b *testing.B) {
			delays := delaysOf(network.Line(256, network.ExpDelay{Mean: mean}, int64(100*mean)))
			var slow float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.SimulateLine(delays, overlap.Options{
					Variant: overlap.TwoLevel, Beta: 2, Steps: 32, Seed: 31,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = out.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE5GeneralHost — Theorem 6: ring guest on embedded NOWs.
func BenchmarkE5GeneralHost(b *testing.B) {
	src := network.ExpDelay{Mean: 3}
	hosts := map[string]*network.Network{
		"mesh16x16":  network.Mesh2D(16, 16, src, 1),
		"hypercube8": network.Hypercube(8, src, 3),
		"randnow256": network.RandomNOW(256, 4, src, 5),
	}
	for name, g := range hosts {
		b.Run(name, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.Simulate(g, overlap.Options{
					Variant: overlap.LoadOne, Steps: 32, Seed: 61,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = out.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE6CliqueChain — Section 4: the unbounded-degree counterexample.
func BenchmarkE6CliqueChain(b *testing.B) {
	for _, k := range []int{6, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := network.CliqueChain(k)
			var slow float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.Simulate(g, overlap.Options{
					Variant: overlap.LoadOne, Steps: 24, Seed: 81,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = out.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
			b.ReportMetric(lower.CliqueChainBestLB(k), "certifiedLB")
		})
	}
}

// BenchmarkE7Mesh — Theorems 7-8: 2-D guest arrays.
func BenchmarkE7Mesh(b *testing.B) {
	for _, m := range []int{8, 32} {
		b.Run(fmt.Sprintf("mesh=%dx%d", m, m), func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := mesharray.OnUniformLine(8, 64, m, mesharray.Options{
					Rows: m, Steps: 12, Seed: 91,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE8SingleCopy — Theorem 9: H1 forces sqrt(n) on single copies.
func BenchmarkE8SingleCopy(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			delays := delaysOf(network.H1(n))
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := baseline.SingleCopy(delays, n, 48, 101, false)
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
			b.ReportMetric(float64(network.ISqrt(n)), "sqrtN")
		})
	}
}

// BenchmarkE9TwoCopy — Theorem 10: certified Omega(log n) on H2.
func BenchmarkE9TwoCopy(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			spec := network.H2(n)
			hostN := spec.Net.NumNodes()
			m := hostN / 2
			owned := make([][]int, hostN)
			half := hostN / 2
			for c := 0; c < m; c++ {
				p := c * half / m
				owned[p] = append(owned[p], c)
				owned[p+half] = append(owned[p+half], c)
			}
			a, err := latencyhide.AssignmentFromOwned(hostN, m, owned)
			if err != nil {
				b.Fatal(err)
			}
			var lb float64
			for i := 0; i < b.N; i++ {
				cert, err := lower.CertifyTwoCopy(spec, a, a.Load())
				if err != nil {
					b.Fatal(err)
				}
				lb = cert.SlowdownLB
			}
			b.ReportMetric(lb, "certifiedLB")
			b.ReportMetric(float64(network.Log2Ceil(spec.N)), "logN")
		})
	}
}

// BenchmarkE10Killing — Lemmas 1-4: interval-tree processing throughput.
func BenchmarkE10Killing(b *testing.B) {
	delays := delaysOf(network.Line(4096, network.ParetoDelay{Alpha: 1.2, Scale: 2, Cap: 4096}, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := tree.Build(delays, 4)
		if err := t.CheckLemmas(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Bandwidth — the bandwidth assumption: burst exchange cost.
func BenchmarkE11Bandwidth(b *testing.B) {
	for _, bw := range []int{1, 8} {
		b.Run(fmt.Sprintf("B=%d", bw), func(b *testing.B) {
			var batch float64
			for i := 0; i < b.N; i++ {
				r, err := uniform.Run(16, 1024, 1, bw, 71)
				if err != nil {
					b.Fatal(err)
				}
				batch = float64(r.StepsPerBatch)
			}
			b.ReportMetric(batch, "steps/batch")
		})
	}
}

// BenchmarkE12RedundancyAblation — redundancy on vs off on the same host.
func BenchmarkE12RedundancyAblation(b *testing.B) {
	delays := nowLine(256, 41)
	for _, strip := range []bool{false, true} {
		name := "redundant"
		if strip {
			name = "stripped"
		}
		b.Run(name, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.SimulateLine(delays, overlap.Options{
					Variant: overlap.TwoLevel, Beta: 2, Steps: 48, Seed: 41,
					StripRedundancy: strip,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = out.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// --- engine micro-benchmarks ---

// BenchmarkEngineSequential measures raw engine throughput
// (pebbles/second) on a mid-size OVERLAP run.
func BenchmarkEngineSequential(b *testing.B) {
	benchEngine(b, 0)
}

// BenchmarkEngineParallel4 exercises the conservative parallel engine.
func BenchmarkEngineParallel4(b *testing.B) {
	benchEngine(b, 4)
}

func benchEngine(b *testing.B, workers int) {
	delays := nowLine(1024, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays:  delays,
		Guest:   guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 64, Seed: 7},
		Assign:  a,
		Workers: workers,
	}
	// B/op divided by pebbles/op is the engine's allocation footprint per
	// pebble. Peak RSS rides along as rss-bytes (it includes runtime spans
	// and whatever earlier benchmarks left resident).
	b.ReportAllocs()
	telemetry.ResetPeakRSS()
	b.ResetTimer()
	var pebbles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pebbles = res.PebblesComputed
	}
	b.ReportMetric(float64(pebbles), "pebbles/op")
	if rss := telemetry.ReadPeakRSS(); rss > 0 {
		b.ReportMetric(float64(rss), "rss-bytes")
	}
}

// BenchmarkEngineLarge is the memory-tier benchmark: a single run computes
// over five million pebbles, so B/op ÷ pebbles/op (bytes per pebble)
// reflects steady-state allocation behavior at scale rather than per-run
// setup cost.
func BenchmarkEngineLarge(b *testing.B) {
	delays := nowLine(4096, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 160, Seed: 7},
		Assign: a,
	}
	b.ReportAllocs()
	telemetry.ResetPeakRSS()
	b.ResetTimer()
	var pebbles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pebbles = res.PebblesComputed
	}
	if pebbles < 5_000_000 {
		b.Fatalf("run computed %d pebbles, want >= 5M for the memory tier", pebbles)
	}
	b.ReportMetric(float64(pebbles), "pebbles/op")
	if rss := telemetry.ReadPeakRSS(); rss > 0 {
		b.ReportMetric(float64(rss), "rss-bytes")
	}
}

// hugeRSSBudgetBytes is the declared working-set ceiling for the 10M-pebble
// tier: the whole benchmark process — route table, knowledge rings, calendar,
// Go runtime — must peak under 512 MB resident, the budget a fleet shard on a
// commodity runner gets. The gate is on peak RSS (VmHWM after a reset), not
// allocation totals, because retained spans are what evicts a neighbor.
const hugeRSSBudgetBytes = 512 << 20

// BenchmarkEngineHuge is the production-scale memory tier: a single run
// computes over ten million pebbles and must stay inside hugeRSSBudgetBytes.
// LATENCYHIDE_HUGE_HOSTS scales the host line down for smoke runs (CI's
// bench-huge-smoke job); the pebble floor only applies at full scale, but the
// RSS budget always does — a catastrophic blowup shows at any size.
func BenchmarkEngineHuge(b *testing.B) {
	hostN := 8192
	var minPebbles int64 = 10_400_000
	if s := os.Getenv("LATENCYHIDE_HUGE_HOSTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 64 {
			b.Fatalf("LATENCYHIDE_HUGE_HOSTS=%q: want an integer >= 64", s)
		}
		hostN = n
		minPebbles = 0
	}
	delays := nowLine(hostN, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 168, Seed: 7},
		Assign: a,
	}
	b.ReportAllocs()
	telemetry.ResetPeakRSS()
	b.ResetTimer()
	var pebbles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pebbles = res.PebblesComputed
	}
	b.StopTimer()
	if pebbles < minPebbles {
		b.Fatalf("run computed %d pebbles, want >= %d for the huge tier", pebbles, minPebbles)
	}
	b.ReportMetric(float64(pebbles), "pebbles/op")
	if rss := telemetry.ReadPeakRSS(); rss > 0 {
		b.ReportMetric(float64(rss), "rss-bytes")
		if rss > hugeRSSBudgetBytes {
			b.Fatalf("peak RSS %.1f MB exceeds the declared %d MB budget",
				float64(rss)/(1<<20), hugeRSSBudgetBytes>>20)
		}
	}
}

// BenchmarkTelemetryEnabled pays for a live registry on the sequential
// engine: one chunk shard and its progress push every 64 steps, an O(procs)
// sum of pebbles computed (the boundary and park metrics are the parallel
// engine's). Compare against BenchmarkEngineSequential (the same run with a
// nil registry) to price instrumentation.
func BenchmarkTelemetryEnabled(b *testing.B) {
	delays := nowLine(1024, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays:    delays,
		Guest:     guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 64, Seed: 7},
		Assign:    a,
		Telemetry: telemetry.NewRegistry(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pebbles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pebbles = res.PebblesComputed
	}
	b.ReportMetric(float64(pebbles), "pebbles/op")
}

// BenchmarkFaultQueryOn pays for a live plan carrying every regime kind at
// once (jitter, outage, Pareto spikes, a moving drift stripe and link
// churn), so every injection consults ExtraDelay and LinkDown across the
// full interval-scan path. Compare against BenchmarkEngineSequential (the
// same run with no plan) to price the adversary.
func BenchmarkFaultQueryOn(b *testing.B) {
	delays := nowLine(1024, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 64, Seed: 7},
		Assign: a,
		Faults: &fault.Plan{
			Seed:    5,
			Jitters: []fault.Jitter{{Link: -1, Prob: 0.1, Amp: 2}},
			Outages: []fault.Outage{{Link: -1, Window: 16, Frac: 0.02}},
			Spikes:  []fault.Spike{{Link: -1, Prob: 0.05, Alpha: 1.5, Cap: 8}},
			Drifts:  []fault.Drift{{Link: -1, Window: 16, Frac: 0.2, Period: 64, Stride: 1}},
			Churns:  []fault.Churn{{Link: 0, Up: 48, Down: 2}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pebbles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pebbles = res.PebblesComputed
	}
	b.ReportMetric(float64(pebbles), "pebbles/op")
}

// BenchmarkRecorderOverhead guards the zero-cost-when-disabled contract of
// the observability hooks: "off" (Config.Recorder nil, the default) must
// track the pre-instrumentation engine cost, while "on" pays for event
// buffering. Compare off vs on with `go test -bench=RecorderOverhead`.
func BenchmarkRecorderOverhead(b *testing.B) {
	delays := nowLine(1024, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	base := sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 64, Seed: 7},
		Assign: a,
	}
	for _, workers := range []int{0, 4} {
		for _, mode := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(b *testing.B) {
				cfg := base
				cfg.Workers = workers
				for i := 0; i < b.N; i++ {
					if mode == "on" {
						cfg.Recorder = obs.NewBuffer()
					}
					if _, err := sim.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObsAnalyze measures the post-run analysis pipeline (stream ->
// stall attribution + critical path) on a recorded mid-size run.
func BenchmarkObsAnalyze(b *testing.B) {
	delays := nowLine(1024, 3)
	t := tree.Build(delays, 4)
	a, err := assign.TwoLevel(t, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	rec := obs.NewBuffer()
	cfg := sim.Config{
		Delays:   delays,
		Guest:    guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 64, Seed: 7},
		Assign:   a,
		Recorder: rec,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	info := cfg.ObsInfo(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := obs.Analyze(rec.Events(), info)
		an.Stalls()
		an.CriticalPath()
	}
	b.ReportMetric(float64(rec.Len()), "events")
}

// BenchmarkReferenceExecutor measures the sequential oracle.
func BenchmarkReferenceExecutor(b *testing.B) {
	spec := guest.Spec{Graph: guest.NewLinearArray(4096), Steps: 64, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := guest.RunDigest(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedding measures the dilation-3 line embedding.
func BenchmarkEmbedding(b *testing.B) {
	g := network.RandomNOW(4096, 4, network.ExpDelay{Mean: 3}, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := latencyhide.EmbedLine(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentHarness runs the full quick-scale harness once per
// iteration (the end-to-end reproduction cost).
func BenchmarkExperimentHarness(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for i := 0; i < b.N; i++ {
		var sink discard
		if err := expt.Write(&sink, expt.Run(expt.All(), expt.Quick, 0, nil), false); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkE13Resilience — fault-injected runs: the replicated-blocks
// assignment under a mid-run crash and under windowed link outages.
func BenchmarkE13Resilience(b *testing.B) {
	delays := delaysOf(network.Line(16, network.UniformDelay{Lo: 1, Hi: 8}, 13))
	a, err := assign.ReplicatedBlocks(16, 32, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"crash", &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: 7, Step: 8}}}},
		{"outage", &fault.Plan{Seed: 42, Outages: []fault.Outage{{Link: -1, Window: 8, Frac: 0.2}}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(sim.Config{
					Delays: delays,
					Guest:  guest.Spec{Graph: guest.NewLinearArray(32), Steps: 16, Seed: 13},
					Assign: a,
					Faults: tc.plan,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE18Adaptive — the E18 core measurement: adaptive c=2 under each
// adversarial regime (spike / drift / churn), controller live.
func BenchmarkE18Adaptive(b *testing.B) {
	delays := delaysOf(network.Line(16, network.UniformDelay{Lo: 1, Hi: 8}, 13))
	a, err := assign.ReplicatedBlocks(16, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	pol := &adapt.Policy{Epoch: 16, Threshold: 0.25, MaxExtra: 1, Budget: 8, RequireFault: true}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"spike", &fault.Plan{Seed: 7, Spikes: []fault.Spike{{Link: -1, Prob: 0.5, Alpha: 0.8, Cap: 32}}}},
		{"drift", &fault.Plan{Seed: 7, Drifts: []fault.Drift{{Link: -1, Window: 8, Frac: 0.9, Period: 2, Stride: 1}}}},
		{"churn", &fault.Plan{Seed: 7, Churns: []fault.Churn{{Link: -1, Up: 6, Down: 6}}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var acts float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(sim.Config{
					Delays: delays,
					Guest:  guest.Spec{Graph: guest.NewLinearArray(32), Steps: 24, Seed: 13},
					Assign: a,
					Faults: tc.plan,
					Adapt:  pol,
				})
				if err != nil {
					b.Fatal(err)
				}
				acts = float64(r.AdaptActivations)
			}
			b.ReportMetric(acts, "activations")
		})
	}
}

// BenchmarkE17HigherDimArrays — the higher-dimensional generalization.
func BenchmarkE17HigherDimArrays(b *testing.B) {
	delays := delaysOf(network.Line(64, network.UniformDelay{Lo: 1, Hi: 8}, 13))
	for _, dims := range [][]int{{216}, {36, 6}, {6, 6, 6}} {
		g := guest.NewArrayND(dims...)
		b.Run(fmt.Sprintf("%dD", len(dims)), func(b *testing.B) {
			l := layout.BFS(g)
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := layout.Simulate(g, l, delays, layout.Options{Steps: 6, Seed: 31})
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE14StructuredGuests — trees/butterflies/hypercubes on a NOW.
func BenchmarkE14StructuredGuests(b *testing.B) {
	delays := delaysOf(network.Line(96, network.BimodalDelay{Near: 1, Far: 24, P: 0.04}, 17))
	tr := guest.NewBinaryTree(6)
	hc := guest.NewHypercube(6)
	bf := guest.NewButterfly(4)
	cases := []struct {
		name string
		g    guest.Graph
		l    *layout.Layout
	}{
		{"tree-inorder", tr, layout.InOrder(tr)},
		{"hypercube-id", hc, layout.Identity(hc.NumNodes())},
		{"butterfly-rank", bf, layout.RankMajor(bf)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := layout.Simulate(c.g, c.l, delays, layout.Options{Steps: 6, Seed: 19})
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE15SameStructure — latency in isolation (Section 7).
func BenchmarkE15SameStructure(b *testing.B) {
	for _, src := range []network.DelaySource{network.ConstDelay(1), network.ExpDelay{Mean: 8}} {
		b.Run(src.(fmt.Stringer).String(), func(b *testing.B) {
			delays := delaysOf(network.Line(256, src, 3))
			var slow float64
			for i := 0; i < b.N; i++ {
				out, err := overlap.SimulateLine(delays, overlap.Options{
					Variant: overlap.LoadOne, Steps: 32, Seed: 23,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow = out.Sim.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
		})
	}
}

// BenchmarkE16ModelContrast — database vs dataflow model (Section 6).
func BenchmarkE16ModelContrast(b *testing.B) {
	for _, d := range []int{64, 1024} {
		b.Run(fmt.Sprintf("dataflow/d=%d", d), func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				r, err := dataflow.Run(8, d, 3, 0, 7)
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Slowdown
			}
			b.ReportMetric(slow, "slowdown")
			b.ReportMetric(1, "replication")
		})
		b.Run(fmt.Sprintf("database/d=%d", d), func(b *testing.B) {
			var slow, rep float64
			for i := 0; i < b.N; i++ {
				r, err := uniform.Run(8, d, 3, 0, 7)
				if err != nil {
					b.Fatal(err)
				}
				slow = r.Slowdown
				rep = float64(r.PebblesComputed) / float64(int64(r.GuestCols)*int64(r.GuestSteps))
			}
			b.ReportMetric(slow, "slowdown")
			b.ReportMetric(rep, "replication")
		})
	}
}

// BenchmarkEngineParallelScaling measures wall-clock speedup of the
// conservative parallel engine at increasing worker counts on one large
// OVERLAP configuration.
func BenchmarkEngineParallelScaling(b *testing.B) {
	delays := nowLine(2048, 3)
	tr := tree.Build(delays, 4)
	a, err := assign.TwoLevel(tr, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 48, Seed: 7},
		Assign: a,
	}
	for _, workers := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineParallelScalingSkewed repeats the scaling measurement on a
// deliberately unbalanced workload: a quadratic column ramp plus a
// replication hotspot concentrate several times more pebbles at the left end
// of the line, so naive host-count splits produce stragglers and the
// work-balanced cuts have to earn their keep.
func BenchmarkEngineParallelScalingSkewed(b *testing.B) {
	const hostN = 2048
	delays := nowLine(hostN, 3)
	m := 2 * hostN
	owned := make([][]int, hostN)
	add := func(p, c int) {
		if p >= hostN {
			p = hostN - 1
		}
		owned[p] = append(owned[p], c)
	}
	for c := 0; c < m; c++ {
		frac := float64(c) / float64(m)
		p := int(frac * frac * float64(hostN))
		add(p, c)
		if c < m/4 {
			// The ramp's densest columns also carry a second replica on the
			// neighboring host.
			add(p+1, c)
		}
	}
	a, err := assign.FromOwned(hostN, m, owned)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(m), Steps: 24, Seed: 7},
		Assign: a,
	}
	for _, workers := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayouts measures layout construction and annealing for a
// mid-size guest.
func BenchmarkLayouts(b *testing.B) {
	g := guest.NewHypercube(9) // 512 nodes
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			layout.BFS(g)
		}
	})
	b.Run("bisection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			layout.Bisection(g, int64(i))
		}
	})
	b.Run("anneal", func(b *testing.B) {
		start := layout.Identity(g.NumNodes())
		for i := 0; i < b.N; i++ {
			layout.Anneal(g, start, int64(i), 0)
		}
	})
}

// BenchmarkDilation3Embedding measures Fact 3 on hosts of increasing size.
func BenchmarkDilation3Embedding(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		g := network.RandomNOW(n, 4, network.ExpDelay{Mean: 3}, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := latencyhide.EmbedLine(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
