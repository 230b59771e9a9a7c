package sim

import (
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
)

func lineConfig(t *testing.T, hostN, stride, left int, delay int, steps int, workers int) Config {
	t.Helper()
	a, err := assign.UniformBlocks(hostN, stride, left, 0)
	if err != nil {
		t.Fatalf("assignment: %v", err)
	}
	delays := make([]int, hostN-1)
	for i := range delays {
		delays[i] = delay
	}
	return Config{
		Delays: delays,
		Guest: guest.Spec{
			Graph: guest.NewLinearArray(a.Columns),
			Steps: steps,
			Seed:  42,
		},
		Assign:  a,
		Check:   true,
		Workers: workers,
	}
}

func TestSmokeSingleCopy(t *testing.T) {
	cfg := lineConfig(t, 8, 4, 0, 3, 16, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Checked {
		t.Fatal("not checked")
	}
	if res.PebblesComputed != int64(cfg.Assign.Columns)*int64(cfg.Guest.Steps) {
		t.Fatalf("computed %d pebbles, want %d", res.PebblesComputed, cfg.Assign.Columns*cfg.Guest.Steps)
	}
	t.Logf("single-copy: hostSteps=%d slowdown=%.2f msgs=%d", res.HostSteps, res.Slowdown, res.Messages)
}

func TestSmokeRedundant(t *testing.T) {
	cfg := lineConfig(t, 8, 4, 8, 16, 12, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Redundancy <= 1 {
		t.Fatalf("redundancy %.2f, want > 1", res.Redundancy)
	}
	t.Logf("redundant: hostSteps=%d slowdown=%.2f redundancy=%.2f", res.HostSteps, res.Slowdown, res.Redundancy)
}

func TestSmokeParallelMatchesSequential(t *testing.T) {
	for _, delay := range []int{1, 5, 17} {
		seq := lineConfig(t, 32, 2, 4, delay, 40, 0)
		par := lineConfig(t, 32, 2, 4, delay, 40, 4)
		rs, err := Run(seq)
		if err != nil {
			t.Fatalf("seq: %v", err)
		}
		rp, err := Run(par)
		if err != nil {
			t.Fatalf("par: %v", err)
		}
		if *rs != *rp {
			t.Fatalf("delay %d: engines disagree: seq=%+v par=%+v", delay, *rs, *rp)
		}
	}
}
