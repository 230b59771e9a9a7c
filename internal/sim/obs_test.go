package sim

import (
	"math/rand"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

// randomNOWConfig builds a seeded heterogeneous line (random link delays,
// uniform multi-copy assignment) — the "network of workstations" shape the
// paper targets.
func randomNOWConfig(t *testing.T, seed int64, hostN int) Config {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	delays := make([]int, hostN-1)
	for i := range delays {
		delays[i] = 1 + r.Intn(25)
	}
	a, err := assign.UniformBlocks(hostN, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 10, Seed: seed},
		Assign: a,
	}
}

// The observability stream must be bit-identical across engines and worker
// counts on the same configuration: golden comparison on seeded random NOWs.
func TestEventStreamIdenticalAcrossEngines(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := randomNOWConfig(t, seed, 24)
		seqBuf := obs.NewBuffer()
		cfg.Recorder = seqBuf
		seqRes, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d seq: %v", seed, err)
		}
		for _, workers := range []int{2, 3, 5} {
			parBuf := obs.NewBuffer()
			pcfg := cfg
			pcfg.Workers = workers
			pcfg.Recorder = parBuf
			parRes, err := Run(pcfg)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if parRes.HostSteps != seqRes.HostSteps {
				t.Fatalf("seed %d workers %d: host steps %d != %d",
					seed, workers, parRes.HostSteps, seqRes.HostSteps)
			}
			se, pe := seqBuf.Events(), parBuf.Events()
			if len(se) != len(pe) {
				t.Fatalf("seed %d workers %d: %d events != %d", seed, workers, len(pe), len(se))
			}
			for i := range se {
				if se[i] != pe[i] {
					t.Fatalf("seed %d workers %d: event %d differs: seq %+v par %+v",
						seed, workers, i, se[i], pe[i])
				}
			}
		}
	}
}

// The recorded stream must be internally consistent with the run's
// aggregate counters.
func TestEventStreamMatchesCounters(t *testing.T) {
	cfg := randomNOWConfig(t, 11, 16)
	buf := obs.NewBuffer()
	cfg.Recorder = buf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var computes, injects, delivers int64
	var lastStep int64
	for _, e := range buf.Events() {
		switch e.Kind {
		case obs.KindCompute:
			computes++
			if e.Step > lastStep {
				lastStep = e.Step
			}
		case obs.KindInject:
			injects++
		case obs.KindDeliver:
			delivers++
		}
	}
	if computes != res.PebblesComputed {
		t.Fatalf("compute events %d != pebbles %d", computes, res.PebblesComputed)
	}
	if injects != res.MessageHops {
		t.Fatalf("inject events %d != hops %d", injects, res.MessageHops)
	}
	if delivers != res.DeliveredValues {
		t.Fatalf("deliver events %d != delivered %d", delivers, res.DeliveredValues)
	}
	if lastStep != res.HostSteps {
		t.Fatalf("last compute event at %d != host steps %d", lastStep, res.HostSteps)
	}
}
