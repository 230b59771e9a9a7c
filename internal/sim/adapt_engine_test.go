package sim

import (
	"reflect"
	"testing"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

// Bit-identity under the adversarial regimes and the adaptive controller:
// one chunk and the driver at w ∈ {1, 2, 4} must agree
// on the Result and the canonical event stream for every new fault kind,
// with and without adaptation.

// runEngines mirrors runBoth but sweeps the worker counts 1, 2 and 4. One
// worker runs a single chunk through the gate alone; two and four meet in
// the gate at every epoch boundary, which is where boundary off-by-ones
// hide.
func runEngines(t *testing.T, cfg Config, label string) *Result {
	t.Helper()
	seqBuf := obs.NewBuffer()
	cfg.Workers = 0
	cfg.Recorder = seqBuf
	seqRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s seq: %v", label, err)
	}
	for _, workers := range []int{1, 2, 4} {
		parBuf := obs.NewBuffer()
		pcfg := cfg
		pcfg.Workers = workers
		pcfg.Recorder = parBuf
		parRes, err := Run(pcfg)
		if err != nil {
			t.Fatalf("%s workers %d: %v", label, workers, err)
		}
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("%s workers %d: results differ:\nseq %+v\npar %+v",
				label, workers, seqRes, parRes)
		}
		se, pe := seqBuf.Events(), parBuf.Events()
		if len(se) != len(pe) {
			t.Fatalf("%s workers %d: %d events != %d", label, workers, len(pe), len(se))
		}
		for i := range se {
			if se[i] != pe[i] {
				t.Fatalf("%s workers %d: event %d differs:\nseq %+v\npar %+v",
					label, workers, i, se[i], pe[i])
			}
		}
	}
	return seqRes
}

func newRegimePlans() map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"spike": {Seed: 99, Spikes: []fault.Spike{{Link: -1, Prob: 0.05, Alpha: 1.2, Cap: 40}}},
		"drift": {Seed: 99, Drifts: []fault.Drift{{Link: -1, Window: 6, Frac: 1, Period: 4, Stride: 1}}},
		"churn": {Seed: 99, Churns: []fault.Churn{{Link: -1, Up: 10, Down: 3}}},
		"combined-new": {
			Seed:   7,
			Spikes: []fault.Spike{{Link: 3, Prob: 0.1, Alpha: 1.5, Cap: 16}},
			Drifts: []fault.Drift{{Link: -1, Window: 8, Frac: 0.8, Period: 5, Stride: 2}},
			Churns: []fault.Churn{{Link: 9, Up: 8, Down: 4}},
		},
	}
}

func TestEnginesIdenticalUnderNewRegimes(t *testing.T) {
	for name, plan := range newRegimePlans() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{3, 21} {
				cfg := randomNOWConfig(t, seed, 16)
				cfg.Faults = plan
				cfg.Check = true
				res := runEngines(t, cfg, name)
				if !res.Checked {
					t.Fatalf("%s seed %d: replicas not verified", name, seed)
				}
			}
		})
	}
}

// adaptiveConfig is a flat line that stalls hard under churn: constant
// delays, replicated blocks, enough guest steps for several epochs.
func adaptiveConfig(t *testing.T, hostN, steps int) Config {
	t.Helper()
	a, err := assign.ReplicatedBlocks(hostN, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]int, hostN-1)
	for i := range delays {
		delays[i] = 4
	}
	return Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: steps, Seed: 17},
		Assign: a,
		Check:  true,
	}
}

func TestEnginesIdenticalUnderAdaptation(t *testing.T) {
	pol := &adapt.Policy{Epoch: 16, Threshold: 0.25, MaxExtra: 1, Budget: 8}
	for name, plan := range newRegimePlans() {
		t.Run(name, func(t *testing.T) {
			cfg := adaptiveConfig(t, 16, 24)
			cfg.Faults = plan
			cfg.Adapt = pol
			res := runEngines(t, cfg, "adapt-"+name)
			if !res.Checked {
				t.Fatalf("%s: adaptive replicas not verified", name)
			}
		})
	}
}

// The controller must actually fire under a sustained churn regime — a run
// where every epoch harvests zero blame would leave the whole adaptive path
// untested — and the activation count is part of the bit-identity contract
// (runEngines compares it via the Result).
func TestAdaptationActivatesUnderChurn(t *testing.T) {
	cfg := adaptiveConfig(t, 16, 32)
	cfg.Faults = &fault.Plan{Seed: 7, Churns: []fault.Churn{{Link: -1, Up: 12, Down: 4}}}
	cfg.Adapt = &adapt.Policy{Epoch: 16, Threshold: 0.25, MaxExtra: 1, Budget: 8}
	res := runEngines(t, cfg, "churn-activates")
	if res.AdaptActivations == 0 {
		t.Fatal("no standby activations under sustained churn")
	}
	if res.AdaptActivations > 8 {
		t.Fatalf("%d activations exceed budget 8", res.AdaptActivations)
	}
	// The event stream carries one KindAdapt event per decision.
	buf := obs.NewBuffer()
	cfg.Recorder = buf
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	adapts := 0
	for _, e := range buf.Events() {
		if e.Kind == obs.KindAdapt {
			adapts++
			if (e.Step-1)%16 != 0 {
				t.Fatalf("activation at step %d is not an epoch boundary", e.Step)
			}
		}
	}
	if adapts != res.AdaptActivations {
		t.Fatalf("%d KindAdapt events, want %d", adapts, res.AdaptActivations)
	}
}

// Adaptation with mode=fault and a fault-free plan never fires, and a nil
// policy must reproduce the base run exactly.
func TestAdaptationNoOpCases(t *testing.T) {
	cfg := adaptiveConfig(t, 12, 16)
	base := runEngines(t, cfg, "no-adapt")
	if base.AdaptActivations != 0 {
		t.Fatalf("activations without a policy: %d", base.AdaptActivations)
	}
	// Fault-free adaptive run: the controller may fire (mode=any blames any
	// stall) but the digests must still verify and the engines still agree.
	cfg.Adapt = &adapt.Policy{Epoch: 8, Threshold: 0.5, MaxExtra: 1, Budget: 4}
	adaptive := runEngines(t, cfg, "adapt-faultfree")
	if !adaptive.Checked {
		t.Fatal("fault-free adaptive run not verified")
	}
	// mode=fault with no fault context anywhere: never activates.
	cfg.Adapt = &adapt.Policy{Epoch: 8, Threshold: 0.5, MaxExtra: 1, Budget: 4, RequireFault: true}
	gated := runEngines(t, cfg, "adapt-gated")
	if gated.AdaptActivations != 0 {
		t.Fatalf("mode=fault fired %d times on a fault-free run", gated.AdaptActivations)
	}
}
