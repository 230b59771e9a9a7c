// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload (one op at a time, the next starting when the last
// returns) for a fixed time and prints its metrics as one JSON line:
//
//	perfbench --workload run-seq --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced ops. With
// --trace 1 it alternates untraced ops with ops that record a span around
// every call into a layer, reports each layer's self time and counts, and
// writes the spans to .bench_build/spans/. README.md lists the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// buildDir holds everything a run leaves behind, relative to the
// directory the benchmark runs in.
const buildDir = ".bench_build"

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: run-seq, run-par2, verify-soak or fleet-twin")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "how long to run timed ops")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload run-seq|run-par2|verify-soak|fleet-twin, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(w, *seed, *seconds, *trace == 1, buildDir, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up the workload, measures it and reports its metrics. Scratch
// files and spans go under out.
func run(w workload, seed int64, seconds float64, traced bool, out string, log io.Writer) (*report, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &session{log: log}
	if traced {
		s.tr = newTracer()
	}
	if err := s.setup(w, seed, dir); err != nil {
		return nil, err
	}
	s.warmUp()
	s.measure(seconds)
	rep := &report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed}
	if !traced {
		rep.Metrics = s.endToEnd()
	} else {
		var all map[string]float64
		rep.Metrics, all = s.perLayer()
		logAll(log, all)
		spans := filepath.Join(out, "spans")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return nil, err
		}
		if err := s.tr.write(filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "%s seed %d: %d set-ups, %d ops attempted, %d failed, %d timed\n",
		w.name, seed, len(s.setupS), s.attempted, s.failed, len(s.plain))
	return rep, nil
}

// logAll prints every value a traced run measured, declared or not.
func logAll(log io.Writer, all map[string]float64) {
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-40s %14.6g\n", k, all[k])
	}
}
