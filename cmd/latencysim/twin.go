package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"latencyhide/internal/fleet"
	"latencyhide/internal/metrics"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/twin"
)

// cmdTwin joins measured slowdowns against the analytical twin
// (internal/twin) and scores each theorem family:
//
//	latencysim twin -report -seed 1 -n 500          measure inline, then score
//	latencysim twin -report -store 'shards/*.jsonl' score existing fleet stores
//	latencysim twin -fit -seed 1 -n 2000            re-derive the fitted constants
//
// -report exits nonzero if any family breaches its MAPE ceiling or any
// measurement beats its certified floor — the CI twin-gate runs exactly
// this.
func cmdTwin(args []string) error {
	return runTwin(args, os.Stdout)
}

func runTwin(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("twin", flag.ExitOnError)
	report := fs.Bool("report", false, "score measured slowdowns against the twin's predictions per theorem family")
	fit := fs.Bool("fit", false, "fit the per-family constants to the corpus and print them (does not change the frozen model)")
	store := fs.String("store", "", "glob of fleet result stores to join (default: measure inline from -seed/-n)")
	seed := fs.Uint64("seed", 1, "scenario stream seed for inline measurement")
	n := fs.Int("n", 500, "number of generated scenarios for inline measurement")
	workers := fs.Int("workers", 4, "concurrent measurement workers for inline mode")
	csv := fs.Bool("csv", false, "emit the report as CSV instead of an aligned table")
	manifestOut, liveFlag := manifestFlags(fs)
	fs.Parse(args)

	if *report == *fit {
		return fmt.Errorf("twin: pass exactly one of -report or -fit")
	}
	mr := startMRun("twin", fs, *manifestOut, *liveFlag)
	results, source, err := twinResults(mr, *liveFlag, *store, *seed, *n, *workers)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("twin: no results to score (empty stores?)")
	}

	if *fit {
		t := metrics.NewTable(fmt.Sprintf("twin -fit over %s (%d scenarios)", source, len(results)),
			"family", "n", "c0", "c_load", "c_floor", "spread_q95")
		for _, p := range twin.Predictors() {
			samples := fleet.Samples(results, p.Name)
			if len(samples) < 3 {
				t.AddRow(p.Name, len(samples), "-", "-", "-", "-")
				continue
			}
			c, err := twin.Fit(samples, p.Name == "cliquechain")
			if err != nil {
				return fmt.Errorf("twin: fitting %s: %v", p.Name, err)
			}
			t.AddRow(p.Name, len(samples),
				fmt.Sprintf("%.4f", c.C0), fmt.Sprintf("%.4f", c.CLoad),
				fmt.Sprintf("%.4f", c.CFloor), fmt.Sprintf("%.4f", c.Spread))
		}
		t.AddNote("point = c0 + c_load*Load + c_floor*PropFloor (clamped >= 1); see DESIGN.md §11")
		if *csv {
			t.CSV(w)
		} else {
			t.Fprint(w)
		}
		return mr.finish()
	}

	reports, allPass := fleet.Report(results)
	t := metrics.NewTable(fmt.Sprintf("analytical twin vs measured slowdown, %s (%d scenarios)", source, len(results)),
		"family", "n", "mape", "ceiling", "in_band", "cert_viol", "status")
	for _, r := range reports {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		mape := "-"
		band := "-"
		if r.N > 0 {
			mape = fmt.Sprintf("%.4f", r.MAPE)
			band = fmt.Sprintf("%.3f", r.InBand)
		}
		t.AddRow(r.Name, r.N, mape, fmt.Sprintf("%.2f", r.Ceiling), band, r.CertViolations, status)
		if mr != nil {
			mr.m.Twin = append(mr.m.Twin, telemetry.TwinFamily{
				Name: r.Name, N: r.N, MAPE: r.MAPE, Ceiling: r.Ceiling,
				InBand: r.InBand, CertViolations: r.CertViolations, Pass: r.Pass,
			})
		}
	}
	for _, r := range reports {
		if r.N > 0 {
			t.AddNote("%s: %s", r.Name, r.Theorem)
		}
	}
	if *csv {
		t.CSV(w)
	} else {
		t.Fprint(w)
	}
	if mr != nil {
		mr.m.Scenario = fmt.Sprintf("twin report %s", source)
	}
	if err := mr.finish(); err != nil {
		return err
	}
	if !allPass {
		return fmt.Errorf("twin: model validation failed (MAPE ceiling breached or certified floor violated)")
	}
	return nil
}

// runFleetSweep is `latencysim sweep -fleet N`: measure one shard of a
// fleet plan into a resumable JSONL store. Already-stored results are
// skipped, so re-running after a kill only computes the remainder — and
// the store file comes out byte-identical to an uninterrupted run.
func runFleetSweep(w io.Writer, plan fleet.Plan, outPath string, workers int, mr *mrun, live bool) error {
	if plan.Shards < 1 {
		return fmt.Errorf("sweep: -shards must be >= 1, got %d", plan.Shards)
	}
	if plan.Shard < 0 || plan.Shard >= plan.Shards {
		return fmt.Errorf("sweep: -shard %d outside [0,%d)", plan.Shard, plan.Shards)
	}
	if outPath == "" {
		outPath = fmt.Sprintf("fleet-shard%d.jsonl", plan.Shard)
	}
	st, err := fleet.Open(outPath)
	if err != nil {
		return err
	}
	defer st.Close()
	resumed := st.Len()
	var done, total atomic.Int64
	mr.startSampling()
	mr.startLive(live, func() string {
		return fmt.Sprintf("fleet: %d/%d items", done.Load(), total.Load())
	})
	err = fleet.RunShard(plan, st, workers, func(d, t int) {
		done.Store(int64(d))
		total.Store(int64(t))
	})
	mr.stopLive()
	if err != nil {
		return err
	}
	items := plan.ShardItems()
	fmt.Fprintf(w, "fleet: seed=%d n=%d shards=%d shard=%d items=%d resumed=%d\n",
		plan.Seed, plan.N, plan.Shards, plan.Shard, len(items), resumed)
	byFamily := map[string]int{}
	for _, r := range st.Results() {
		byFamily[r.Family]++
	}
	for _, p := range twin.Predictors() {
		if c := byFamily[p.Name]; c > 0 {
			fmt.Fprintf(w, "fleet: family %-11s %d measured\n", p.Name, c)
		}
	}
	fmt.Fprintf(w, "fleet: %d results in %s\n", st.Len(), outPath)
	if mr != nil {
		mr.m.Scenario = fmt.Sprintf("fleet seed=%d n=%d shard=%d/%d", plan.Seed, plan.N, plan.Shard, plan.Shards)
		mr.m.Fleet = &telemetry.FleetSummary{
			Seed: plan.Seed, N: plan.N, Shards: plan.Shards, Shard: plan.Shard,
			Items: len(items), Resumed: resumed, Store: outPath,
		}
	}
	return mr.finish()
}

// twinResults loads the corpus: from fleet stores when -store was given,
// otherwise by measuring the plan inline into a throwaway in-memory-ish
// store (a temp file, so the same single-writer code path runs).
func twinResults(mr *mrun, live bool, storeGlob string, seed uint64, n, workers int) ([]fleet.Result, string, error) {
	if storeGlob != "" {
		paths, err := filepath.Glob(storeGlob)
		if err != nil {
			return nil, "", fmt.Errorf("twin: bad -store glob: %v", err)
		}
		if len(paths) == 0 {
			return nil, "", fmt.Errorf("twin: -store %q matches no files", storeGlob)
		}
		sort.Strings(paths)
		results, err := fleet.ReadAll(paths...)
		if err != nil {
			return nil, "", err
		}
		return results, fmt.Sprintf("%d stores", len(paths)), nil
	}
	if n < 1 {
		return nil, "", fmt.Errorf("twin: -n must be >= 1, got %d", n)
	}
	dir, err := os.MkdirTemp("", "latencysim-twin-*")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	st, err := fleet.Open(filepath.Join(dir, "inline.jsonl"))
	if err != nil {
		return nil, "", err
	}
	defer st.Close()
	plan := fleet.Plan{Seed: seed, N: n}
	var done, total atomic.Int64
	mr.startSampling()
	mr.startLive(live, func() string {
		return fmt.Sprintf("twin: %d/%d scenarios", done.Load(), total.Load())
	})
	err = fleet.RunShard(plan, st, workers, func(d, t int) {
		done.Store(int64(d))
		total.Store(int64(t))
	})
	mr.stopLive()
	if err != nil {
		return nil, "", err
	}
	return st.Results(), fmt.Sprintf("seed=%d n=%d", seed, n), nil
}
