package sim_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/sim"
	"latencyhide/internal/verify"
)

// arenaLines renders a run's golden digest line and golden-counter line,
// each from its own run through run.
func arenaLines(t *testing.T, run runner, gc goldenCase) string {
	t.Helper()
	digest, err := goldenLine(run, gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	counters, err := countersLine(run, gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return digest + "\n" + counters
}

// arenaCases is the golden corpus and the long-link configs, whose
// arrivals reach the calendar's overflow heap, on both engines.
func arenaCases(t *testing.T) []goldenCase {
	return append(goldenCases(t), longLinkCases(t)...)
}

// TestArenaMatchesFresh runs every arena case through one Arena, in order
// and then reversed, so each run inherits the memory of a differently
// shaped one. Every run's event stream, Result and work counters must equal
// a fresh sim.Run's.
func TestArenaMatchesFresh(t *testing.T) {
	cases := arenaCases(t)
	want := make([]string, len(cases))
	for i, gc := range cases {
		want[i] = arenaLines(t, sim.Run, gc)
	}
	var a sim.Arena
	for pass := 0; pass < 2; pass++ {
		for j := range cases {
			i := j
			if pass == 1 {
				i = len(cases) - 1 - j
			}
			if got := arenaLines(t, a.Run, cases[i]); got != want[i] {
				t.Errorf("%s, pass %d, through the arena:\n%s\nfresh:\n%s", cases[i].name, pass, got, want[i])
			}
		}
	}
}

// TestArenaAfterFailedRun ends an arena run with each way a run can fail,
// on both engines where both apply, and requires the arena's next run to
// equal a fresh one. A run that fails mid-flight leaves queued and in-flight
// messages, calendar entries, waiters and grown rings in the arena's
// memory; none of it may leak into the next run.
func TestArenaAfterFailedRun(t *testing.T) {
	// Scenario 21 queues up to 12 messages on a link and takes 129 steps,
	// so its capped runs stop with work ready and traffic queued, in
	// flight and due; which of those a cap catches depends on the step.
	sc := verify.Generate(1, 21)
	busy, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	long := longLinkCases(t)[0].cfg
	huge := long
	huge.Guest.Steps = math.MaxInt32
	single, err := assign.SingleCopyBlocks(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	orphaned := sim.Config{
		Delays: []int{1, 2, 1, 3, 1, 2, 1},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(16), Steps: 6, Seed: 3},
		Assign: single,
		Faults: &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: 4, Step: 3}}},
	}
	type failure struct {
		name string
		run  func(*sim.Arena) error
		want func(error) bool
	}
	var failures []failure
	for _, maxSteps := range []int64{15, 30, 60} {
		for _, workers := range []int{0, sc.Workers} {
			cfg := *busy
			cfg.MaxSteps, cfg.Workers = maxSteps, workers
			failures = append(failures, failure{fmt.Sprintf("step cap %d, %d workers", maxSteps, workers),
				func(a *sim.Arena) error { _, err := a.Run(cfg); return err }, stepCap})
		}
	}
	failures = append(failures,
		failure{"stall seq", func(a *sim.Arena) error { return a.RunDeadlocked(long, nil) }, stalled},
		failure{"stall par", func(a *sim.Arena) error { return a.RunDeadlocked(long, []int{0, 8, 16}) }, stalled},
		failure{"envelope", func(a *sim.Arena) error { _, err := a.Run(huge); return err }, func(err error) bool {
			var env *sim.EnvelopeError
			return errors.As(err, &env)
		}},
		failure{"uncomputable", func(a *sim.Arena) error { _, err := a.Run(orphaned); return err }, func(err error) bool {
			var unc *sim.UncomputableError
			return errors.As(err, &unc)
		}},
	)
	// Every fourth scenario on both engines, and the long-link configs.
	golden := goldenCases(t)
	var next []goldenCase
	for i := 0; i < len(golden); i += 8 {
		next = append(next, golden[i], golden[i+1])
	}
	next = append(next, longLinkCases(t)...)
	var a sim.Arena
	for _, gc := range next {
		want := arenaLines(t, sim.Run, gc)
		for _, f := range failures {
			// Fail before each of the two runs arenaLines makes.
			run := func(cfg sim.Config) (*sim.Result, error) {
				if err := f.run(&a); !f.want(err) {
					t.Fatalf("%s: got %v", f.name, err)
				}
				return a.Run(cfg)
			}
			if got := arenaLines(t, run, gc); got != want {
				t.Errorf("%s after a %s failure:\n%s\nfresh:\n%s", gc.name, f.name, got, want)
			}
		}
	}
}

func stepCap(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeded step cap") }

func stalled(err error) bool { return err != nil && strings.Contains(err.Error(), "stalled") }
