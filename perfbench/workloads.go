package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/fleet"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/overlap"
	"latencyhide/internal/sim"
	"latencyhide/internal/tree"
	"latencyhide/internal/twin"
	"latencyhide/internal/verify"
)

// Workload sizes. README.md gives the reasons for each.
const (
	runHosts        = 1024
	verifyScenarios = 192
	fleetItems      = 1000
	// engineWorkers is the parallel engine's worker count, and the most
	// chunks a verify-soak scenario's parallel run may use: the machine the
	// benchmark was sized on has two cores.
	engineWorkers = 2
	// fleetWorkers is fleet-twin's measuring worker count. With two, the
	// op's wall and CPU times spread several times more between runs: each
	// worker stalls whenever the host takes its vCPU away.
	fleetWorkers = 1
	// runSqrtD is TwoLevel's stride. The default, round(sqrt(d_ave)), is 2
	// on most seeds' embedded lines, but d_ave lands just under 2.25 on
	// about one seed in five, where the default would halve the op's work.
	runSqrtD = 2
)

// outcome is what one op produced. fp is a deterministic fingerprint of
// the op's output: every op of a run must reproduce the reference's.
type outcome struct {
	fp       string
	work     float64 // pebbles, scenarios or plan items
	slowdown float64 // host steps per guest step
}

// instance is a workload after set-up.
type instance interface {
	// reference runs the untimed warm-up op whose outcome every later op
	// must match.
	reference() (outcome, error)
	// op runs one op. With a tracer it makes the op's calls into the
	// layers one by one, each inside a span.
	op(tr *tracer) (outcome, error)
	// probe times, outside any op, the layer calls an op makes only from
	// inside another package's function.
	probe(tr *tracer) error
}

// workload builds an instance from the seed; dir is scratch space the
// instance may write to. The build is what setup_s times.
type workload struct {
	name  string
	setup func(seed int64, dir string, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"run-seq", setupRun(0)},
	{"run-par2", setupRun(engineWorkers)},
	{"verify-soak", setupVerify},
	{"fleet-twin", setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timedErr is timed for calls that return only an error.
func timedErr(tr *tracer, name string, f func() error) error {
	_, err := timed(tr, name, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

// runSim runs the engine inside a sim.run span and counts its work.
func runSim(tr *tracer, cfg sim.Config) (*sim.Result, error) {
	if tr == nil {
		return sim.Run(cfg)
	}
	cpu0, alloc0 := cpuTime(), heapAllocs()
	res, err := timed(tr, "sim.run", func() (*sim.Result, error) { return sim.Run(cfg) })
	if err != nil {
		return nil, err
	}
	tr.add("sim.cpu_ms", float64(cpuTime()-cpu0)/1e6)
	tr.add("sim.alloc_mb", float64(heapAllocs()-alloc0)/1e6)
	tr.add("sim.runs", 1)
	tr.add("sim.pebbles", float64(res.PebblesComputed))
	tr.add("sim.guest_work", float64(res.GuestWork))
	tr.add("sim.messages", float64(res.Messages))
	tr.add("sim.hops", float64(res.MessageHops))
	tr.add("sim.host_steps", float64(res.HostSteps))
	return res, nil
}

// --- run-seq, run-par2: one OVERLAP outer round on a random NOW ---

type runCase struct {
	g       *network.Network
	seed    int64
	workers int
	guest   guest.Spec // the guest of the last traced op, for probe
}

func setupRun(workers int) func(int64, string, *tracer) (instance, error) {
	return func(seed int64, _ string, tr *tracer) (instance, error) {
		g, err := timed(tr, "network.build", func() (*network.Network, error) {
			return network.RandomNOW(runHosts, 4, network.BimodalDelay{Near: 1, Far: 64, P: 0.02}, seed), nil
		})
		return &runCase{g: g, seed: seed, workers: workers}, err
	}
}

func runOutcome(r *sim.Result) outcome {
	return outcome{
		fp: fmt.Sprintf("host_steps=%d pebbles=%d messages=%d hops=%d delivered=%d",
			r.HostSteps, r.PebblesComputed, r.Messages, r.MessageHops, r.DeliveredValues),
		work:     float64(r.PebblesComputed),
		slowdown: r.Slowdown,
	}
}

func (c *runCase) simulate(workers int) (outcome, error) {
	out, err := overlap.Simulate(c.g, overlap.Options{
		Variant: overlap.TwoLevel, SqrtD: runSqrtD, Seed: c.seed, Workers: workers, Check: true,
	})
	if err != nil {
		return outcome{}, err
	}
	if !out.Sim.Checked {
		return outcome{}, errors.New("run: digests were not checked against the reference")
	}
	return runOutcome(out.Sim), nil
}

// reference runs the other engine, so every op is held to the counters
// the other engine produced on the same input.
func (c *runCase) reference() (outcome, error) {
	other := engineWorkers
	if c.workers > 1 {
		other = 0
	}
	return c.simulate(other)
}

func (c *runCase) op(tr *tracer) (outcome, error) {
	if tr == nil {
		return c.simulate(c.workers)
	}
	return c.decomposed(tr)
}

// decomposed makes the calls overlap.Simulate makes for TwoLevel with
// default β, one by one. The engine runs with Check on, as Simulate's does,
// so the sim.run span includes the digest check against the guest
// reference; probe times that reference on its own.
func (c *runCase) decomposed(tr *tracer) (outcome, error) {
	line, err := timed(tr, "embedding.embed", func() (*embedding.Line, error) {
		l, err := embedding.Embed(c.g, 0)
		if err == nil {
			l.Stats(c.g)
		}
		return l, err
	})
	if err != nil {
		return outcome{}, err
	}
	n := len(line.Delays) + 1
	t, err := timed(tr, "tree.build", func() (*tree.Tree, error) {
		t := tree.Build(line.Delays, 4)
		return t, t.CheckLemmas()
	})
	if err != nil {
		return outcome{}, err
	}
	a, err := timed(tr, "assign.build", func() (*assign.Assignment, error) {
		return assign.TwoLevel(t, overlap.DefaultBeta(1, n, 64), runSqrtD)
	})
	if err != nil {
		return outcome{}, err
	}
	tr.add("assign.replicas", float64(a.TotalReplicas()))
	g, _ := timed(tr, "guest.graph", func() (guest.Graph, error) { return guest.NewLinearArray(a.Columns), nil })
	cfg := sim.Config{
		Delays:  line.Delays,
		Guest:   guest.Spec{Graph: g, Steps: max(n/(4*t.LogN), 1), Seed: c.seed},
		Assign:  a,
		Workers: c.workers,
		Check:   true,
	}
	res, err := runSim(tr, cfg)
	if err != nil {
		return outcome{}, err
	}
	if !res.Checked {
		return outcome{}, errors.New("run: digests were not checked against the reference")
	}
	c.guest = cfg.Guest
	return runOutcome(res), nil
}

// probe times the guest reference the engine's digest check runs, on the
// guest the last traced op simulated.
func (c *runCase) probe(tr *tracer) error {
	if c.guest.Graph == nil {
		return errors.New("run: no traced op ran before the probe")
	}
	ref, err := timed(tr, "guest.ref", func() (*guest.DigestResult, error) {
		return guest.RunDigestParallel(c.guest, 0)
	})
	if err != nil {
		return err
	}
	tr.add("guest.ref_pebbles", float64(ref.Work))
	return nil
}

// --- verify-soak: one verifier pass over the generated scenarios ---

type verifyCase struct {
	scs []*verify.Scenario
}

func setupVerify(seed int64, _ string, tr *tracer) (instance, error) {
	scs, err := timed(tr, "verify.generate", func() ([]*verify.Scenario, error) {
		scs := make([]*verify.Scenario, verifyScenarios)
		for i := range scs {
			scs[i] = verify.Generate(uint64(seed), i)
			scs[i].Workers = min(scs[i].Workers, engineWorkers)
		}
		return scs, nil
	})
	return &verifyCase{scs: scs}, err
}

func (c *verifyCase) op(tr *tracer) (outcome, error) {
	var events, relations, violations int
	var first string
	for _, sc := range c.scs {
		rep, err := timed(tr, "verify.check", func() (*verify.Report, error) { return verify.CheckScenario(sc) })
		if err != nil {
			return outcome{}, err
		}
		events += rep.Events
		relations += len(rep.Relations)
		if len(rep.Violations) > 0 && first == "" {
			first = fmt.Sprintf("%s: %s", sc, rep.Violations[0])
		}
		violations += len(rep.Violations)
	}
	if tr != nil {
		tr.add("verify.scenarios", float64(len(c.scs)))
		tr.add("verify.relations", float64(relations))
	}
	o := outcome{
		fp:   fmt.Sprintf("scenarios=%d events=%d relations=%d", len(c.scs), events, relations),
		work: float64(len(c.scs)),
	}
	if violations > 0 {
		return o, fmt.Errorf("verify: %d violations, first %s", violations, first)
	}
	return o, nil
}

// reference is one pass plus the scenarios' mean slowdown on the
// sequential engine, which the verifier's report does not carry.
func (c *verifyCase) reference() (outcome, error) {
	o, err := c.op(nil)
	if err != nil {
		return o, err
	}
	for _, sc := range c.scs {
		cfg, err := sc.Build()
		if err != nil {
			return o, err
		}
		res, err := sim.Run(*cfg)
		if err != nil {
			return o, fmt.Errorf("verify: scenario %s: %w", sc, err)
		}
		o.slowdown += res.Slowdown / float64(len(c.scs))
	}
	return o, nil
}

// probe makes the calls at the core of verify.CheckScenario one by one:
// the build, the engine runs on both engines with the event stream
// recorded, and the oracle over the sequential stream.
func (c *verifyCase) probe(tr *tracer) error {
	for _, sc := range c.scs {
		var seq *sim.Result
		var seqCfg *sim.Config
		var seqEvents []obs.Event
		for _, workers := range []int{0, sc.Workers} {
			cfg, err := timed(tr, "verify.build", sc.Build)
			if err != nil {
				return err
			}
			buf := obs.NewBuffer()
			cfg.Workers, cfg.Check, cfg.Recorder = workers, true, buf
			res, err := runSim(tr, *cfg)
			if err != nil {
				return fmt.Errorf("verify: scenario %s: %w", sc, err)
			}
			tr.add("obs.events", float64(buf.Len()))
			if workers == 0 {
				seq, seqCfg, seqEvents = res, cfg, buf.Events()
			}
		}
		vs, _ := timed(tr, "verify.oracle", func() ([]verify.Violation, error) {
			return verify.CheckRun(seqCfg, seq, seqEvents), nil
		})
		tr.add("verify.oracle_events", float64(len(seqEvents)))
		if len(vs) > 0 {
			return fmt.Errorf("verify: scenario %s: %s", sc, vs[0])
		}
	}
	return nil
}

// --- fleet-twin: sweep -fleet into a fresh store, then twin -report ---

type fleetCase struct {
	plan  fleet.Plan
	items []fleet.Item
	path  string
}

func setupFleet(seed int64, dir string, tr *tracer) (instance, error) {
	plan := fleet.Plan{Seed: uint64(seed), N: fleetItems}
	items, err := timed(tr, "fleet.plan", func() ([]fleet.Item, error) { return plan.Items(), nil })
	return &fleetCase{plan: plan, items: items, path: filepath.Join(dir, "fleet.jsonl")}, err
}

func (c *fleetCase) reference() (outcome, error) { return c.op(nil) }

func (c *fleetCase) op(tr *tracer) (outcome, error) {
	if err := os.Remove(c.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return outcome{}, err
	}
	st, err := fleet.Open(c.path)
	if err != nil {
		return outcome{}, err
	}
	if tr == nil {
		err = fleet.RunShard(c.plan, st, fleetWorkers, nil)
	} else {
		err = c.runShard(tr, st)
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return outcome{}, err
	}
	results, err := timed(tr, "fleet.read", func() ([]fleet.Result, error) { return fleet.ReadAll(c.path) })
	if err != nil {
		return outcome{}, err
	}
	var reports []fleet.FamilyReport
	var pass bool
	_ = timedErr(tr, "twin.report", func() error {
		reports, pass = fleet.Report(results)
		return nil
	})
	var apeSum float64
	var scored int
	for _, r := range reports {
		apeSum += r.MAPE * float64(r.N)
		scored += r.N
	}
	var hostSteps int64
	var slowdown float64
	for _, r := range results {
		hostSteps += r.HostSteps
		slowdown += r.Slowdown / float64(len(results))
	}
	mape := apeSum / float64(max(scored, 1))
	if tr != nil {
		tr.add("twin.mape", mape)
		if fi, err := os.Stat(c.path); err == nil {
			tr.add("fleet.store_bytes", float64(fi.Size()))
		}
	}
	o := outcome{
		fp:       fmt.Sprintf("items=%d host_steps=%d mape=%.12g", len(results), hostSteps, mape),
		work:     float64(len(c.items)),
		slowdown: slowdown,
	}
	if err := c.checkStore(results); err != nil {
		return o, err
	}
	if !pass {
		return o, errors.New("fleet: twin report failed a MAPE ceiling or a certified floor")
	}
	return o, nil
}

// checkStore holds the store to exactly the plan's items, once each.
func (c *fleetCase) checkStore(results []fleet.Result) error {
	if len(results) != len(c.items) {
		return fmt.Errorf("fleet: store holds %d results, plan has %d items", len(results), len(c.items))
	}
	want := make(map[string]bool, len(c.items))
	for _, it := range c.items {
		want[it.Key()] = true
	}
	for _, r := range results {
		if !want[r.Key] {
			return fmt.Errorf("fleet: store holds %s, which is not a plan item or is stored twice", r.Spec)
		}
		delete(want, r.Key)
	}
	return nil
}

// runShard makes fleet.RunShard's calls into a fresh store, through the
// same pipeline: fleetWorkers workers with a cold Measurer take item
// positions from a channel, and one collector appends the results in plan
// order as they arrive, then syncs.
func (c *fleetCase) runShard(tr *tracer, st *fleet.Store) error {
	items, _ := timed(tr, "fleet.plan", func() ([]fleet.Item, error) {
		var pending []fleet.Item
		for _, it := range c.plan.ShardItems() {
			if !st.Has(it.Key()) {
				pending = append(pending, it)
			}
		}
		return pending, nil
	})
	type measured struct {
		pos int
		res fleet.Result
		err error
	}
	m := fleet.NewMeasurer()
	jobs := make(chan int)
	results := make(chan measured)
	var wg sync.WaitGroup
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range jobs {
				res, err := timed(tr, "fleet.measure", func() (fleet.Result, error) { return m.Measure(items[pos]) })
				results <- measured{pos, res, err}
			}
		}()
	}
	go func() {
		for pos := range items {
			jobs <- pos
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	buffered := map[int]measured{}
	next := 0
	var firstErr error
	for out := range results {
		buffered[out.pos] = out
		for o, ok := buffered[next]; ok; o, ok = buffered[next] {
			delete(buffered, next)
			next++
			if firstErr == nil {
				firstErr = o.err
			}
			if firstErr == nil {
				firstErr = timedErr(tr, "fleet.append", func() error { return st.Append(o.res) })
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	tr.add("fleet.items", float64(len(items)))
	return timedErr(tr, "fleet.sync", st.Sync)
}

// probe times twin.Floors on every plan item's inputs; inside an op it
// runs within fleet.Measure. Then it times the verify and obs layers,
// which the op does not reach: the plan's scenarios are verify.Generate's,
// so the probe runs verify-soak's set-up, one verify-soak op and
// verify-soak's probe on the same seed's scenarios. Any violation fails
// the probe.
func (c *fleetCase) probe(tr *tracer) error {
	ccs := map[int]*floorsArgs{}
	for _, it := range c.items {
		in, err := floorsInputs(it, ccs)
		if err != nil {
			return err
		}
		_ = timedErr(tr, "twin.floors", func() error {
			twin.Floors(in.g, in.a.Holders, in.delays, in.steps)
			return nil
		})
		tr.add("twin.floors_calls", 1)
	}
	vc, err := setupVerify(int64(c.plan.Seed), "", tr)
	if err != nil {
		return err
	}
	if _, err := vc.op(tr); err != nil {
		return err
	}
	return vc.probe(tr)
}

type floorsArgs struct {
	g      guest.Graph
	a      *assign.Assignment
	delays []int
	steps  int
}

// floorsInputs rebuilds the guest graph, assignment, delays and horizon
// fleet.Measure hands to twin.Floors for one item.
func floorsInputs(it fleet.Item, ccs map[int]*floorsArgs) (floorsArgs, error) {
	if it.Kind == "cc" {
		var k, steps int
		var seed int64
		if _, err := fmt.Sscanf(it.Spec, "k=%d;steps=%d;seed=%d", &k, &steps, &seed); err != nil {
			return floorsArgs{}, fmt.Errorf("fleet: cc spec %q: %w", it.Spec, err)
		}
		in := ccs[k]
		if in == nil {
			line, err := embedding.Embed(network.CliqueChain(k), 0)
			if err != nil {
				return floorsArgs{}, err
			}
			a, err := assign.Overlap(tree.Build(line.Delays, 4))
			if err != nil {
				return floorsArgs{}, err
			}
			in = &floorsArgs{g: guest.NewLinearArray(a.Columns), a: a, delays: line.Delays}
			ccs[k] = in
		}
		out := *in
		out.steps = steps
		return out, nil
	}
	sc, err := verify.Parse(it.Spec)
	if err != nil {
		return floorsArgs{}, err
	}
	g, err := sc.Graph()
	if err != nil {
		return floorsArgs{}, err
	}
	a, err := sc.Assignment(g.NumNodes())
	if err != nil {
		return floorsArgs{}, err
	}
	return floorsArgs{g: g, a: a, delays: sc.Delays(), steps: sc.Steps}, nil
}
