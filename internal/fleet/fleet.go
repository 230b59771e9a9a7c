package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/sim"
	"latencyhide/internal/tree"
	"latencyhide/internal/twin"
	"latencyhide/internal/verify"
)

// Plan enumerates a fleet corpus: N fault-free scenarios from the verify
// generator's seed stream, followed by the clique-chain ladder (the
// Section 4 family cannot be sampled from topology stats — the
// construction itself is the point, so the plan tags those items
// explicitly). A plan is pure data: any process that agrees on
// (Seed, N, Shards) derives the same items in the same order.
type Plan struct {
	// Seed selects the verify generator stream.
	Seed uint64
	// N is the number of generator scenarios.
	N int
	// Shards and Shard select a slice of the plan for this worker
	// process: item i belongs to shard i mod Shards. Shards <= 1 means
	// the whole plan.
	Shards int
	// Shard is this worker's id in [0, Shards).
	Shard int
}

// Item is one unit of fleet work.
type Item struct {
	// Index is the item's global position in the plan.
	Index int
	// Kind is "verify" or "cc".
	Kind string
	// Spec reconstructs the scenario (verify.Parse or the cc ladder
	// format "k=K;steps=T;seed=S").
	Spec string
}

// Key is the item's content-hash store identity.
func (it Item) Key() string { return Key(it.Kind, it.Spec) }

// The clique-chain ladder: every (k, steps) rung measured once. The
// guest seed only permutes data values, never the schedule, so one seed
// per rung suffices.
var ccLadderK = []int{4, 5, 6, 8, 10, 12}
var ccLadderSteps = []int{8, 16, 24}

const ccLadderSeed = 81

// Items derives the full plan in order: generator scenarios first
// (dynamics stripped — the twin models the fault-free protocol; the
// adversarial regimes keep their own validation in E13/E18 and
// `verify -chaos`), then the clique-chain ladder.
func (p Plan) Items() []Item {
	items := make([]Item, 0, p.N+len(ccLadderK)*len(ccLadderSteps))
	for i := 0; i < p.N; i++ {
		sc := verify.Generate(p.Seed, i).StripDynamics()
		items = append(items, Item{Index: i, Kind: "verify", Spec: sc.String()})
	}
	idx := p.N
	for _, k := range ccLadderK {
		for _, steps := range ccLadderSteps {
			items = append(items, Item{
				Index: idx,
				Kind:  "cc",
				Spec:  fmt.Sprintf("k=%d;steps=%d;seed=%d", k, steps, ccLadderSeed),
			})
			idx++
		}
	}
	return items
}

// ShardItems derives only this worker's slice of the plan, in order.
func (p Plan) ShardItems() []Item {
	all := p.Items()
	if p.Shards <= 1 {
		return all
	}
	var out []Item
	for _, it := range all {
		if it.Index%p.Shards == p.Shard {
			out = append(out, it)
		}
	}
	return out
}

// parseCC reads a clique-chain ladder spec "k=K;steps=T;seed=S".
func parseCC(spec string) (k, steps int, seed int64, err error) {
	for _, item := range strings.Split(spec, ";") {
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("fleet: cc item %q is not key=value", item)
		}
		switch key {
		case "k":
			k, err = strconv.Atoi(val)
		case "steps":
			steps, err = strconv.Atoi(val)
		case "seed":
			seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("fleet: unknown cc item %q", item)
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if k < 2 || steps < 1 {
		return 0, 0, 0, fmt.Errorf("fleet: cc spec %q needs k >= 2, steps >= 1", spec)
	}
	return k, steps, seed, nil
}

// ccBundle is the cached construction of one clique-chain rung size: the
// embedded host line, the OVERLAP assignment and the guest array are
// identical across all steps/seed rungs of the same k, so the fleet
// builds them once per process.
type ccBundle struct {
	delays []int
	a      *assign.Assignment
	g      guest.Graph
}

// Measurer runs fleet items with per-process construction caches: guest
// graphs keyed by shape/dims, assignments keyed by (hosts, columns, rep)
// — the verify generator draws from small ranges, so thousands of
// scenarios share a few hundred distinct structures — and the embedded
// clique-chain bundles keyed by k. All caches hold immutable values
// (engines never mutate graphs or assignments). Engine runs reuse memory
// through a free list of sim.Arenas: each Measure takes one for its run and
// gives it back, so concurrent Measures never share one and a Measurer is
// safe for concurrent use.
type Measurer struct {
	mu      sync.Mutex
	guests  map[string]guest.Graph
	assigns map[string]*assign.Assignment
	ccs     map[int]*ccBundle
	arenas  []*sim.Arena // idle arenas
}

// NewMeasurer returns a Measurer with empty caches.
func NewMeasurer() *Measurer {
	return &Measurer{
		guests:  map[string]guest.Graph{},
		assigns: map[string]*assign.Assignment{},
		ccs:     map[int]*ccBundle{},
	}
}

func (m *Measurer) guestFor(sc *verify.Scenario) (guest.Graph, error) {
	key := fmt.Sprintf("%s:%d:%d", sc.Shape, sc.GA, sc.GB)
	m.mu.Lock()
	g, ok := m.guests[key]
	m.mu.Unlock()
	if ok {
		return g, nil
	}
	g, err := sc.Graph()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.guests[key] = g
	m.mu.Unlock()
	return g, nil
}

func (m *Measurer) assignFor(sc *verify.Scenario, cols int) (*assign.Assignment, error) {
	key := fmt.Sprintf("%d:%d:%d", sc.HostN, cols, sc.Rep)
	m.mu.Lock()
	a, ok := m.assigns[key]
	m.mu.Unlock()
	if ok {
		return a, nil
	}
	a, err := sc.Assignment(cols)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.assigns[key] = a
	m.mu.Unlock()
	return a, nil
}

func (m *Measurer) ccFor(k int) (*ccBundle, error) {
	m.mu.Lock()
	b, ok := m.ccs[k]
	m.mu.Unlock()
	if ok {
		return b, nil
	}
	net := network.CliqueChain(k)
	line, err := embedding.Embed(net, 0)
	if err != nil {
		return nil, err
	}
	a, err := assign.Overlap(tree.Build(line.Delays, 4))
	if err != nil {
		return nil, err
	}
	b = &ccBundle{delays: line.Delays, a: a, g: guest.NewLinearArray(a.Columns)}
	m.mu.Lock()
	m.ccs[k] = b
	m.mu.Unlock()
	return b, nil
}

// Measure runs one item on the sequential engine and joins it with the
// twin's prediction.
func (m *Measurer) Measure(it Item) (Result, error) {
	var (
		cfg    sim.Config
		stats  twin.Stats
		family *twin.Predictor
	)
	switch it.Kind {
	case "verify":
		sc, err := verify.Parse(it.Spec)
		if err != nil {
			return Result{}, err
		}
		g, err := m.guestFor(sc)
		if err != nil {
			return Result{}, err
		}
		a, err := m.assignFor(sc, g.NumNodes())
		if err != nil {
			return Result{}, err
		}
		delays := sc.Delays()
		stats = verify.TwinStatsOf(g, a, delays, sc.Rep, sc.Steps, sc.BW)
		family = twin.Classify(stats)
		cfg = sim.Config{
			Delays:    delays,
			Guest:     guest.Spec{Graph: g, Steps: sc.Steps, Seed: sc.Seed},
			Assign:    a,
			Bandwidth: sc.BW,
		}
	case "cc":
		k, steps, seed, err := parseCC(it.Spec)
		if err != nil {
			return Result{}, err
		}
		b, err := m.ccFor(k)
		if err != nil {
			return Result{}, err
		}
		stats = verify.TwinStatsOf(b.g, b.a, b.delays, b.a.MaxCopies(), steps, 0)
		family = twin.ByName("cliquechain")
		cfg = sim.Config{
			Delays: b.delays,
			Guest:  guest.Spec{Graph: b.g, Steps: steps, Seed: seed},
			Assign: b.a,
		}
	default:
		return Result{}, fmt.Errorf("fleet: unknown item kind %q", it.Kind)
	}
	res, err := m.run(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("fleet: %s item %d (%s): %w", it.Kind, it.Index, it.Spec, err)
	}
	return Result{
		Key:       it.Key(),
		Index:     it.Index,
		Kind:      it.Kind,
		Spec:      it.Spec,
		Family:    family.Name,
		Stats:     stats,
		Slowdown:  res.Slowdown,
		HostSteps: res.HostSteps,
		Predicted: family.Predict(stats),
	}, nil
}

// run executes cfg on the sequential engine in an idle arena, or a new one
// when every arena is busy, and returns the arena to the free list.
func (m *Measurer) run(cfg sim.Config) (*sim.Result, error) {
	m.mu.Lock()
	var a *sim.Arena
	if n := len(m.arenas); n > 0 {
		a, m.arenas = m.arenas[n-1], m.arenas[:n-1]
	} else {
		a = new(sim.Arena)
	}
	m.mu.Unlock()
	res, err := a.Run(cfg)
	m.mu.Lock()
	m.arenas = append(m.arenas, a)
	m.mu.Unlock()
	return res, err
}

// RunShard measures this plan shard's pending items and appends them to
// the store in plan order. Workers compute concurrently, but a single
// collector writes: out-of-order completions are buffered until their
// turn, which is what keeps a killed-then-resumed store byte-identical
// to an uninterrupted one. Already-stored keys are skipped entirely.
func RunShard(p Plan, st *Store, workers int, progress func(done, total int)) error {
	items := p.ShardItems()
	var pending []Item
	for _, it := range items {
		if !st.Has(it.Key()) {
			pending = append(pending, it)
		}
	}
	if progress != nil {
		progress(len(items)-len(pending), len(items))
	}
	if len(pending) == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	m := NewMeasurer()
	type outcome struct {
		pos int
		res Result
		err error
	}
	jobs := make(chan int)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range jobs {
				res, err := m.Measure(pending[pos])
				results <- outcome{pos: pos, res: res, err: err}
			}
		}()
	}
	go func() {
		for pos := range pending {
			jobs <- pos
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	// Single writer: buffer completions, append strictly in plan order.
	buffered := map[int]outcome{}
	next := 0
	done := len(items) - len(pending)
	var firstErr error
	for out := range results {
		buffered[out.pos] = out
		for {
			o, ok := buffered[next]
			if !ok {
				break
			}
			delete(buffered, next)
			next++
			if o.err != nil {
				if firstErr == nil {
					firstErr = o.err
				}
				continue
			}
			if firstErr == nil {
				if err := st.Append(o.res); err != nil {
					firstErr = err
				}
				done++
				if progress != nil {
					progress(done, len(items))
				}
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return st.Sync()
}

// FamilyReport scores one theorem family over a result set.
type FamilyReport struct {
	// Name and Theorem identify the twin predictor.
	Name, Theorem string
	// N is the number of scenarios scored.
	N int
	// MAPE is the mean absolute percentage error of the twin's point
	// prediction; Ceiling is the family's hard threshold.
	MAPE, Ceiling float64
	// InBand is the fraction of measurements inside the predicted band.
	InBand float64
	// CertViolations counts measurements below their certified
	// finite-horizon floor — always 0 unless the engine is broken.
	CertViolations int
	// Pass is MAPE <= Ceiling with no certified-floor violations
	// (vacuously true for an empty family).
	Pass bool
}

// Report scores every twin family over the results. allPass is false if
// any non-empty family breaches its MAPE ceiling or any measurement
// beats its certified floor.
func Report(results []Result) (reports []FamilyReport, allPass bool) {
	allPass = true
	for _, p := range twin.Predictors() {
		fr := FamilyReport{Name: p.Name, Theorem: p.Theorem, Ceiling: p.MAPECeiling, Pass: true}
		var sumAPE float64
		inBand := 0
		for _, r := range results {
			if r.Family != p.Name || r.Slowdown <= 0 {
				continue
			}
			fr.N++
			sumAPE += math.Abs(r.Predicted.Point-r.Slowdown) / r.Slowdown
			if r.Predicted.Contains(r.Slowdown) {
				inBand++
			}
			if r.Slowdown < r.Stats.CertFloor-1e-9 {
				fr.CertViolations++
			}
		}
		if fr.N > 0 {
			fr.MAPE = sumAPE / float64(fr.N)
			fr.InBand = float64(inBand) / float64(fr.N)
			fr.Pass = fr.MAPE <= fr.Ceiling && fr.CertViolations == 0
		}
		if !fr.Pass {
			allPass = false
		}
		reports = append(reports, fr)
	}
	return reports, allPass
}

// Samples converts results to twin fit samples, optionally restricted to
// one family ("" = all) — the input to `latencysim twin -fit`.
func Samples(results []Result, family string) []twin.Sample {
	var out []twin.Sample
	for _, r := range results {
		if family != "" && r.Family != family {
			continue
		}
		out = append(out, twin.Sample{Stats: r.Stats, Measured: r.Slowdown})
	}
	return out
}
