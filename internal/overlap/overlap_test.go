package overlap

import (
	"math"
	"testing"

	"latencyhide/internal/network"
)

func delaysOf(g *network.Network) []int {
	out := make([]int, g.NumLinks())
	for i, e := range g.Edges() {
		out[i] = e.Delay
	}
	return out
}

func bimodalLine(n int, far int, seed int64) []int {
	return delaysOf(network.Line(n, network.BimodalDelay{Near: 1, Far: far, P: 1.0 / float64(far)}, seed))
}

func TestVariantsRunAndVerify(t *testing.T) {
	delays := bimodalLine(128, 32, 1)
	for _, v := range []Variant{LoadOne, WorkEfficient, TwoLevel} {
		out, err := SimulateLine(delays, Options{Variant: v, Beta: 3, Steps: 24, Seed: 2, Check: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !out.Sim.Checked {
			t.Fatalf("%v: not verified", v)
		}
		if out.GuestCols < 1 || out.Load < 1 || out.PredictedSlowdown <= 0 {
			t.Fatalf("%v: %+v", v, out)
		}
		if out.Sim.Slowdown <= 0 {
			t.Fatalf("%v: slowdown %f", v, out.Sim.Slowdown)
		}
	}
}

func TestVariantString(t *testing.T) {
	if LoadOne.String() != "load-one" || WorkEfficient.String() != "work-efficient" ||
		TwoLevel.String() != "two-level" || Variant(9).String() == "" {
		t.Fatal("variant names")
	}
}

func TestLoadMatchesTheorems(t *testing.T) {
	delays := bimodalLine(256, 64, 3)
	l1, err := SimulateLine(delays, Options{Variant: LoadOne, Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if l1.Load != 1 {
		t.Fatalf("Theorem 2 load %d != 1", l1.Load)
	}
	we, err := SimulateLine(delays, Options{Variant: WorkEfficient, Beta: 7, Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if we.Load != 7 {
		t.Fatalf("Theorem 3 load %d != beta", we.Load)
	}
	if we.GuestCols != l1.GuestCols*7 {
		t.Fatalf("blocked guest %d != 7x%d", we.GuestCols, l1.GuestCols)
	}
	tl, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, SqrtD: 3, Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Load > (2+2)*3 {
		t.Fatalf("Theorem 5 load %d > (beta+2)s", tl.Load)
	}
}

func TestBadOptions(t *testing.T) {
	delays := bimodalLine(64, 16, 1)
	if _, err := SimulateLine(delays, Options{Variant: Variant(42)}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestDefaultStepsIsM0(t *testing.T) {
	delays := bimodalLine(256, 16, 5)
	out, err := SimulateLine(delays, Options{Variant: LoadOne})
	if err != nil {
		t.Fatal(err)
	}
	want := 256 / (4 * 8) // n / (c log n)
	if out.Sim.GuestSteps != want {
		t.Fatalf("default steps %d want %d", out.Sim.GuestSteps, want)
	}
}

func TestStripRedundancyIsSlower(t *testing.T) {
	delays := bimodalLine(256, 64, 7)
	full, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	strip, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 32, Seed: 3, StripRedundancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxCopies < 2 {
		t.Fatal("full run has no redundancy to strip")
	}
	if strip.MaxCopies != 1 {
		t.Fatal("strip left copies")
	}
	if strip.Sim.Slowdown <= full.Sim.Slowdown {
		t.Fatalf("stripped (%.1f) not slower than redundant (%.1f)",
			strip.Sim.Slowdown, full.Sim.Slowdown)
	}
}

func TestSimulateOnGeneralHost(t *testing.T) {
	g := network.Mesh2D(12, 12, network.ExpDelay{Mean: 3}, 9)
	out, err := Simulate(g, Options{Variant: LoadOne, Steps: 16, Seed: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dilation < 1 || out.Dilation > 3 {
		t.Fatalf("dilation %d", out.Dilation)
	}
	if out.Inflation <= 0 {
		t.Fatalf("inflation %f", out.Inflation)
	}
	if !out.Sim.Checked {
		t.Fatal("not verified")
	}
}

func TestSimulateDisconnectedHost(t *testing.T) {
	g := network.New(4)
	g.MustAddLink(0, 1, 1)
	if _, err := Simulate(g, Options{}); err == nil {
		t.Fatal("disconnected host accepted")
	}
}

func TestEfficiencyDefinition(t *testing.T) {
	delays := bimodalLine(128, 16, 11)
	out, err := SimulateLine(delays, Options{Variant: WorkEfficient, Beta: 4, Steps: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(out.Sim.HostSteps) * float64(out.LiveProcs) / float64(out.Sim.GuestWork)
	if math.Abs(out.Efficiency()-want) > 1e-9 {
		t.Fatalf("efficiency %f want %f", out.Efficiency(), want)
	}
	var empty Outcome
	if empty.Efficiency() != 0 {
		t.Fatal("empty outcome efficiency")
	}
}

func TestDefaultBeta(t *testing.T) {
	if DefaultBeta(2, 1024, 0) != 2*1000 {
		t.Fatalf("beta %d", DefaultBeta(2, 1024, 0))
	}
	if DefaultBeta(2, 1024, 100) != 100 {
		t.Fatal("clamp high")
	}
	if DefaultBeta(0, 4, 0) != 1 {
		t.Fatal("clamp low")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	delays := bimodalLine(128, 32, 13)
	a, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.HostSteps != b.Sim.HostSteps || a.Sim.Messages != b.Sim.Messages {
		t.Fatal("nondeterministic")
	}
}

func TestParallelEngineThroughOverlap(t *testing.T) {
	delays := bimodalLine(128, 32, 17)
	seq, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 24, Seed: 5, Workers: 4, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Sim.HostSteps != par.Sim.HostSteps {
		t.Fatalf("engines disagree: %d vs %d", seq.Sim.HostSteps, par.Sim.HostSteps)
	}
}

func TestHugeDelayHostStillWorks(t *testing.T) {
	// hosts with processors killed by stage 1 must still simulate
	delays := make([]int, 255)
	for i := range delays {
		delays[i] = 1
	}
	delays[128] = 50_000_000
	out, err := SimulateLine(delays, Options{Variant: LoadOne, Steps: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.KilledStage1 == 0 {
		t.Fatal("expected stage-1 killing")
	}
	if !out.Sim.Checked {
		t.Fatal("not verified")
	}
	// A line host has no route around a catastrophic link, so the
	// slowdown cannot beat d_ave here (d_ave itself is ~d_max/n); the
	// theorem's promise is slowdown O(d_ave log^3 n), not o(d_ave) —
	// assert the measured value respects the bound's shape.
	if out.Sim.Slowdown > 64*out.PredictedSlowdown {
		t.Fatalf("slowdown %g far exceeds the Theorem 2 bound %g",
			out.Sim.Slowdown, out.PredictedSlowdown)
	}
	if out.Sim.Slowdown < out.Dave/float64(out.Sim.GuestSteps) {
		t.Fatalf("slowdown %g impossibly small for one crossing of d_ave %g",
			out.Sim.Slowdown, out.Dave)
	}
}

// Slowdown must converge as guest steps grow: the measured per-step cost at
// 4 rounds should be close to the cost at 2 rounds (no unbounded startup
// transient or leak).
func TestSlowdownConverges(t *testing.T) {
	delays := bimodalLine(256, 64, 21)
	short, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	long, err := SimulateLine(delays, Options{Variant: TwoLevel, Beta: 2, Steps: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ratio := long.Sim.Slowdown / short.Sim.Slowdown
	if ratio > 1.5 || ratio < 0.4 {
		t.Fatalf("slowdown not stable: %.1f at 32 steps vs %.1f at 128 (ratio %.2f)",
			short.Sim.Slowdown, long.Sim.Slowdown, ratio)
	}
}

// Soak: a large verified end-to-end run exercising killing, two-level
// margins, the parallel engine and parallel verification together.
func TestSoakLargeVerifiedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	delays := bimodalLine(2048, 512, 33)
	delays[1024] = 10_000_000 // trigger killing too
	out, err := SimulateLine(delays, Options{
		Variant: TwoLevel, Beta: 2, SqrtD: 8, Steps: 48, Seed: 44,
		Workers: 4, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Sim.Checked {
		t.Fatal("not verified")
	}
	if out.KilledStage1 == 0 {
		t.Fatal("expected killing")
	}
	t.Logf("soak: guest=%d load=%d slowdown=%.1f pebbles=%d",
		out.GuestCols, out.Load, out.Sim.Slowdown, out.Sim.PebblesComputed)
}

// End to end on the Theorem 10 host: H2 is a line, so OVERLAP runs on it
// directly, killing nothing (constant d_ave) and verifying values.
func TestOverlapOnH2Host(t *testing.T) {
	spec := network.H2(1024)
	out, err := SimulateLine(delaysOf(spec.Net), Options{
		Variant: TwoLevel, Beta: 2, Steps: 24, Seed: 12, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Sim.Checked {
		t.Fatal("unchecked")
	}
	// with many copies allowed, OVERLAP beats the two-copy Omega(log n)
	// wall only by paying load; sanity: slowdown within the d-bound
	if out.Sim.Slowdown > float64(spec.D)*8 {
		t.Fatalf("slowdown %.1f far above d=%d", out.Sim.Slowdown, spec.D)
	}
}
