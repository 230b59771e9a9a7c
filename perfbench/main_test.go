package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly (-short
// skips the run-* ones), untraced and traced, and checks that it reports exactly the declared
// metrics with their units, that no op fails, and that the traced op's
// spans cover at least 90% of its wall time.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	for _, d := range b.Workloads {
		if _, ok := findWorkload(d.Name); !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark lacks", d.Name)
		}
	}
	for _, w := range workloads {
		if testing.Short() && strings.HasPrefix(w.name, "run-") {
			continue // seconds per op
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep, err := run(w, 1, 0.1, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed", w.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			var got []string
			for name, m := range rep.Metrics {
				got = append(got, name)
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q is not a valid name", w.name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %q", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s traced=%v: got metrics %v, want the %d declared", w.name, traced, got, len(want))
			}
			if traced {
				if c := rep.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("%s: spans cover %.3f of the traced op, want >= 0.9", w.name, c)
				}
			} else if rep.Metrics["op_ms.p50"].Value <= 0 || rep.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: non-positive time in %v", w.name, rep.Metrics)
			}
		}
	}
}

// TestRunDecompositionMatchesSimulate holds the traced run op, which makes
// overlap.Simulate's calls one by one, to Simulate's counters on both
// engines.
func TestRunDecompositionMatchesSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the run-* workloads")
	}
	for _, name := range []string{"run-seq", "run-par2"} {
		w, _ := findWorkload(name)
		inst, err := w.setup(7, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		c := inst.(*runCase)
		want, err := c.simulate(c.workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.op(newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: decomposed op gave %+v, overlap.Simulate %+v", name, got, want)
		}
	}
}

// tampered alters the reference outcome, as a wrong expected output would.
type tampered struct{ instance }

func (t tampered) reference() (outcome, error) {
	o, err := t.instance.reference()
	o.fp += " tampered"
	return o, err
}

// TestTamperedReferenceFailsOps checks that an op whose output differs
// from the expected output counts as failed instead of stopping the run.
func TestTamperedReferenceFailsOps(t *testing.T) {
	w, _ := findWorkload("fleet-twin")
	inst, err := w.setup(3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{inst: tampered{inst}, log: io.Discard}
	s.warmUp()
	s.measure(0.1)
	if s.attempted != 1+minOps || s.failed != minOps {
		t.Fatalf("attempted %d, failed %d; want %d ops with every timed op failed", s.attempted, s.failed, 1+minOps)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", Op: 1, Kind: kindOp, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Kind: kindOp, Parent: 0, Start: 10, End: 50},
		{Name: "b", Op: 1, Kind: kindOp, Parent: 0, Start: 40, End: 60},
		{Name: "a", Op: 1, Kind: kindOp, Parent: 0, Start: 80, End: 90},
		{Name: "c", Op: 1, Kind: kindOp, Parent: 1, Start: 20, End: 30},
	}
	o := tr.summarize()[1]
	// Children of the root cover [10,60) and [80,90): 60 of 100 ns.
	if o.coverage != 0.6 {
		t.Errorf("coverage %v, want 0.6", o.coverage)
	}
	// a: 40 + 10 ns less its child c's 10 ns; b and c have no children.
	want := map[string]float64{"a_ms": 40e-6, "b_ms": 20e-6, "c_ms": 10e-6}
	for k, v := range want {
		if got := o.values[k]; got < v-1e-12 || got > v+1e-12 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
}
