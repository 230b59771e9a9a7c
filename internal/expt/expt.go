// Package expt is the reproduction harness: one experiment per paper result
// (see DESIGN.md's per-experiment index). Every experiment regenerates a
// table whose *shape* — who wins, by what asymptotic factor, where the
// crossovers fall — must match the corresponding theorem; EXPERIMENTS.md
// records paper-vs-measured for each.
package expt

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"latencyhide/internal/metrics"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick runs in seconds; used by tests and the default CLI.
	Quick Scale = iota
	// Full runs the sizes EXPERIMENTS.md reports.
	Full
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("expt: unknown scale %q (want quick or full)", s)
	}
}

// Experiment is one reproducible paper result.
type Experiment struct {
	ID    string // e.g. "E1"
	Title string
	Paper string // which theorem/figure it reproduces
	Run   func(scale Scale) ([]*metrics.Table, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("expt: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID, or nil.
func Get(id string) *Experiment { return registry[id] }

// All returns every registered experiment, sorted by ID (E1, E2, ..., E10
// numerically).
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// Result is one experiment's outcome from Run.
type Result struct {
	Exp    *Experiment
	Tables []*metrics.Table
	Err    error // the experiment's error or recovered panic; nil on success
	Wall   time.Duration
}

// runOne executes one experiment, converting a panic into that experiment's
// error (with the stack) so a bug in one experiment cannot take down the
// whole harness or the goroutines running its concurrent siblings.
func runOne(e *Experiment, scale Scale) (tables []*metrics.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return e.Run(scale)
}

// Run executes exps at the given scale on up to workers goroutines
// (workers <= 0 means GOMAXPROCS, 1 runs strictly sequentially) and returns
// their results in list order, so what a caller renders from them does not
// depend on the worker count. It keeps going past failed experiments. After
// each experiment finishes, progress (nil disables it) is called with the
// completion count, the total and the experiment's ID, possibly from
// several goroutines at once.
func Run(exps []*Experiment, scale Scale, workers int, progress func(done, total int, id string)) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(exps))
	results := make([]Result, len(exps))
	var done atomic.Int64
	runAt := func(i int) {
		e, r := exps[i], &results[i]
		start := time.Now()
		r.Exp = e
		r.Tables, r.Err = runOne(e, scale)
		r.Wall = time.Since(start)
		if progress != nil {
			progress(int(done.Add(1)), len(exps), e.ID)
		}
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runAt(i)
			}
		}()
	}
	for i := range exps {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// Write renders results to w in order, each under an "=== ID: title
// (paper) ===" header, as markdown tables if md is true; a failed
// experiment renders its error in place of its tables. It returns the first
// experiment error, wrapped with the experiment's ID, or a write error.
func Write(w io.Writer, results []Result, md bool) error {
	var buf bytes.Buffer
	var firstErr error
	for _, r := range results {
		e := r.Exp
		fmt.Fprintf(&buf, "\n=== %s: %s (%s) ===\n\n", e.ID, e.Title, e.Paper)
		if r.Err != nil {
			fmt.Fprintf(&buf, "FAILED: %v\n", r.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, r.Err)
			}
			continue
		}
		for _, t := range r.Tables {
			if md {
				t.Markdown(&buf)
			} else {
				t.Fprint(&buf)
				fmt.Fprintln(&buf)
			}
		}
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	return firstErr
}
