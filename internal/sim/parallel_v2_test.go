package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// checkCuts asserts the structural invariants every cut vector must satisfy:
// cuts[0] = 0 < cuts[1] < ... < cuts[w] = n.
func checkCuts(t *testing.T, cuts []int, n, w int) {
	t.Helper()
	if len(cuts) != w+1 {
		t.Fatalf("want %d cuts for %d chunks, got %v", w+1, w, cuts)
	}
	if cuts[0] != 0 || cuts[w] != n {
		t.Fatalf("cuts %v do not span [0, %d]", cuts, n)
	}
	for i := 1; i <= w; i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts %v not strictly increasing", cuts)
		}
	}
}

func TestSplitPositionsTable(t *testing.T) {
	uniform := func(n int) []int {
		d := make([]int, n-1)
		for i := range d {
			d[i] = 1
		}
		return d
	}

	t.Run("uniform-even-split", func(t *testing.T) {
		for _, tc := range []struct{ n, w int }{
			{8, 2}, {64, 4}, {100, 5}, {96, 3},
		} {
			cuts := splitPositionsWork(uniform(tc.n), nil, tc.w)
			checkCuts(t, cuts, tc.n, tc.w)
			// Uniform delays and work: each chunk within one window of n/w.
			window := tc.n / (4 * tc.w)
			if window < 1 {
				window = 1
			}
			for i := 0; i < tc.w; i++ {
				size := cuts[i+1] - cuts[i]
				if size < tc.n/tc.w-2*window || size > tc.n/tc.w+2*window {
					t.Fatalf("n=%d w=%d: chunk %d size %d far from even (%v)",
						tc.n, tc.w, i, size, cuts)
				}
			}
		}
	})

	t.Run("degenerate-window", func(t *testing.T) {
		// n < 4w makes the naive window n/(4w) zero; the clamp keeps the
		// nudge search alive and the cuts valid up to w = n/2.
		for _, tc := range []struct{ n, w int }{
			{10, 5}, {8, 4}, {6, 3}, {4, 2}, {12, 5}, {9, 4},
		} {
			cuts := splitPositionsWork(uniform(tc.n), nil, tc.w)
			checkCuts(t, cuts, tc.n, tc.w)
		}
	})

	t.Run("w-near-half", func(t *testing.T) {
		for n := 4; n <= 24; n++ {
			w := n / 2
			if w < 2 {
				continue
			}
			cuts := splitPositionsWork(uniform(n), nil, w)
			checkCuts(t, cuts, n, w)
		}
	})

	t.Run("cuts-land-on-max-delay-links", func(t *testing.T) {
		// One slow link near each even-split point: the nudge must pick it
		// (cut at p means the boundary link is delays[p-1]).
		delays := uniform(80)
		delays[19] = 50
		delays[39] = 70
		delays[59] = 60
		cuts := splitPositionsWork(delays, nil, 4)
		checkCuts(t, cuts, 80, 4)
		want := []int{0, 20, 40, 60, 80}
		if !reflect.DeepEqual(cuts, want) {
			t.Fatalf("cuts %v did not land on the slow links (want %v)", cuts, want)
		}
	})

	t.Run("work-at-line-end", func(t *testing.T) {
		// Every work quantile lands on the last host, past the room the
		// later cuts need: the cuts must still be strictly increasing.
		for _, tc := range []struct {
			delays []int
			work   []int64
		}{
			{[]int{1, 31, 1, 1, 12}, []int64{1, 1, 1, 1, 1, 11}},
			{uniform(12), []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 500}},
			{uniform(12), []int64{500, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		} {
			n := len(tc.delays) + 1
			for w := 2; w <= n; w++ {
				checkCuts(t, splitPositionsWork(tc.delays, tc.work, w), n, w)
			}
		}
	})

	t.Run("work-balanced-skew", func(t *testing.T) {
		// All the work piles up on the last quarter of the hosts; the work
		// quantile cuts must crowd toward that end instead of splitting the
		// host count evenly.
		n := 64
		work := make([]int64, n)
		for p := range work {
			work[p] = 1
			if p >= 48 {
				work[p] = 100
			}
		}
		cuts := splitPositionsWork(uniform(n), work, 4)
		checkCuts(t, cuts, n, 4)
		if cuts[1] < 40 {
			t.Fatalf("cuts %v ignore the hotspot: first cut should sit near the heavy tail", cuts)
		}
		// The heavy region must not sit inside a single chunk.
		heavyChunks := 0
		for i := 0; i < 4; i++ {
			if cuts[i+1] > 48 {
				heavyChunks++
			}
		}
		if heavyChunks < 3 {
			t.Fatalf("cuts %v leave the hotspot in %d chunks (want >= 3)", cuts, heavyChunks)
		}
	})
}

// seqFrontier runs cfg over rt on one chunk, which must stall, and returns
// its frontier: the error after "stalled with every chunk quiet: ".
func seqFrontier(t *testing.T, cfg *Config, rt *routeTable) string {
	t.Helper()
	_, err := new(Arena).runCuts(cfg, rt, oneChunk(cfg))
	if err == nil {
		t.Fatal("one chunk finished a deadlocked run")
	}
	_, f, ok := strings.Cut(err.Error(), "stalled with every chunk quiet: ")
	if !ok {
		t.Fatalf("one-chunk error is not a stall: %v", err)
	}
	return f
}

// checkStall runs cfg over cuts and requires the stall error with the
// one-chunk run's frontier. MaxSteps is far out of reach, so only the
// gate's stall verdict can end either run.
func checkStall(t *testing.T, cfg Config, rt *routeTable, cuts []int) {
	t.Helper()
	cfg.MaxSteps = 1 << 40
	want := seqFrontier(t, &cfg, rt)
	_, err := new(Arena).runCuts(&cfg, rt, cuts)
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), want) {
		t.Fatalf("cuts %v: got %v, want a stall at the one-chunk frontier %q", cuts, err, want)
	}
	t.Log(err)
}

// TestStallCatchesDeadlock wires a genuinely deadlocked dataflow (an empty
// route table, so boundary dependencies are never delivered) across two
// chunks and checks the gate reports the stall instead of hanging.
func TestStallCatchesDeadlock(t *testing.T) {
	a, err := assign.FromOwned(2, 2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays: []int{1},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(2), Steps: 2, Seed: 1},
		Assign: a,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// An empty route table: step-2 pebbles need the neighbor's step-1 value,
	// which is never routed — the canonical "assignment bug" deadlock.
	rt := newRouteShell(cfg.Guest.Graph, a, nil)
	rt.countCrossings(2, nil)
	checkStall(t, cfg, rt, []int{0, 1, 2})
}

// TestStepCapEndsDeadAdaptiveRun gives the deadlock above an adaptive
// policy. There a quiet run is no stall, since an activation at the next
// epoch boundary may revive it, so one chunk and two must both run into
// the step cap instead of hanging. Every epoch ends in the gate with every
// chunk settled and pebbles left, and the gate releases the next epoch.
func TestStepCapEndsDeadAdaptiveRun(t *testing.T) {
	a, err := assign.FromOwned(2, 2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays:   []int{1},
		Guest:    guest.Spec{Graph: guest.NewLinearArray(2), Steps: 2, Seed: 1},
		Assign:   a,
		Adapt:    &adapt.Policy{Epoch: 4, Threshold: 0.25, MaxExtra: 1, Budget: 1},
		MaxSteps: 40,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.ast = newAdaptState(&cfg, nil)
	rt := newRouteShell(cfg.Guest.Graph, a, cfg.ast.extraCols)
	rt.countCrossings(2, nil)
	engines := map[string]func() (*Result, error){
		"seq": func() (*Result, error) { return new(Arena).runCuts(&cfg, rt, oneChunk(&cfg)) },
		"par": func() (*Result, error) { return new(Arena).runCuts(&cfg, rt, []int{0, 1, 2}) },
	}
	for name, f := range engines {
		if _, err := f(); err == nil || !strings.Contains(err.Error(), "exceeded step cap 40") {
			t.Fatalf("%s: got %v, want the step-cap error", name, err)
		}
	}
}

// withoutRoutesAcross drops every route whose traffic crosses link
// (k, k+1) from its sender's slot, so the values it carries never arrive.
func withoutRoutesAcross(rt *routeTable, k int32) {
	var ids []int32
	off := make([]int32, len(rt.slotOff))
	for s := 0; s+1 < len(rt.slotOff); s++ {
		off[s] = int32(len(ids))
		for _, id := range rt.routeIDs[rt.slotOff[s]:rt.slotOff[s+1]] {
			dests := rt.destsOf(id)
			lo, hi := rt.routes[id].sender, dests[len(dests)-1]
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo > k || k >= hi {
				ids = append(ids, id)
			}
		}
	}
	off[len(off)-1] = int32(len(ids))
	rt.routeIDs, rt.slotOff = ids, off
}

// TestStallInteriorBoundary cuts the routes across the middle boundary of
// four chunks: the outer chunks run until the missing values' cone reaches
// them, then every chunk falls quiet with pebbles left.
func TestStallInteriorBoundary(t *testing.T) {
	a, err := assign.SingleCopyBlocks(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays: []int{1, 3, 2, 4, 2, 1, 3},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(16), Steps: 12, Seed: 5},
		Assign: a,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rt := buildRoutes(cfg.Guest.Graph, a, nil, nil)
	withoutRoutesAcross(rt, 3)
	checkStall(t, cfg, rt, []int{0, 2, 4, 6, 8})
}

// TestStallQueuedCrashFinishes: a crash-stop host is no route destination,
// so it sticks early, and only its crash at a late step writes its pebbles
// off. Its chunk has nothing but that queued crash left, which counts as an
// event: the run must finish, not stall, and match the sequential engine.
func TestStallQueuedCrashFinishes(t *testing.T) {
	const hostN, host, crashStep = 8, 3, 300
	a, err := assign.ReplicatedBlocks(hostN, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays:   []int{2, 5, 1, 7, 3, 2, 4},
		Guest:    guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 8, Seed: 17},
		Assign:   a,
		MaxSteps: 1 << 40,
		Check:    true,
		Faults:   &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: host, Step: crashStep}}},
	}
	res := runBoth(t, cfg, "late crash")
	buf := obs.NewBuffer()
	cfg.Recorder = buf
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var computed int
	for _, e := range buf.Events() {
		if e.Kind == obs.KindCompute && int(e.Proc) == host {
			computed++
		}
	}
	if full := len(a.Owned[host]) * cfg.Guest.Steps; computed >= full {
		t.Fatalf("crash host computed all %d pebbles; the run never needed the write-off", full)
	}
	if res.HostSteps >= crashStep {
		t.Fatalf("last pebble at step %d, want before the crash at %d", res.HostSteps, crashStep)
	}
}

// chunkShards reads the per-chunk telemetry shards of a finished run and
// checks they tile the host line [0, hostN) in order, returning their
// pebbles_computed counters.
func chunkShards(t *testing.T, reg *telemetry.Registry, hostN int) []int64 {
	t.Helper()
	var pebbles []int64
	prev := 0
	for _, s := range reg.ShardSnapshots() {
		if s.Lo != prev || s.Hi <= s.Lo {
			t.Fatalf("shard [%d,%d) does not continue the tiling at %d", s.Lo, s.Hi, prev)
		}
		prev = s.Hi
		pebbles = append(pebbles, s.Counters.PebblesComputed)
	}
	if prev != hostN {
		t.Fatalf("shards end at %d, want %d", prev, hostN)
	}
	return pebbles
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestChunkGauges checks a parallel run cuts one telemetry shard per chunk,
// tiling the host line, with pebble counts summing to the run total; a
// sequential run cuts a single shard over the whole line.
func TestChunkGauges(t *testing.T) {
	a, err := assign.UniformBlocks(16, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays:    unitDelays(16),
		Guest:     guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 10, Seed: 3},
		Assign:    a,
		Workers:   4,
		Telemetry: telemetry.NewRegistry(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pebbles := chunkShards(t, cfg.Telemetry, 16)
	if len(pebbles) != 4 {
		t.Fatalf("want 4 chunk shards, got %d", len(pebbles))
	}
	if sum(pebbles) != res.PebblesComputed {
		t.Fatalf("shard pebbles %v sum to %d, run total %d", pebbles, sum(pebbles), res.PebblesComputed)
	}
	cfg.Workers = 0
	cfg.Telemetry = telemetry.NewRegistry()
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := chunkShards(t, cfg.Telemetry, 16); len(got) != 1 || got[0] != seq.PebblesComputed {
		t.Fatalf("sequential shards %v, want one holding %d pebbles", got, seq.PebblesComputed)
	}
}

// TestChunkGaugesConcurrent reads the per-chunk shards while the parallel
// engine writes them; under -race this checks the reads are race-free, and
// the finished shards must still tile the line and sum to the run total.
func TestChunkGaugesConcurrent(t *testing.T) {
	a, err := assign.UniformBlocks(64, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := Config{
		Delays:    delaysOf(64, 3),
		Guest:     guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 40, Seed: 3},
		Assign:    a,
		Workers:   4,
		Telemetry: reg,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range reg.ShardSnapshots() {
					if s.Counters.PebblesComputed < 0 {
						t.Errorf("shard [%d,%d) went negative", s.Lo, s.Hi)
					}
				}
				runtime.Gosched()
			}
		}()
	}
	res, err := Run(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(chunkShards(t, reg, 64)); got != res.PebblesComputed {
		t.Fatalf("shard pebbles sum to %d, run total %d", got, res.PebblesComputed)
	}
}

// cutsFromBytes decodes a fuzz byte string into a valid cut vector over n
// hosts: each byte proposes an interior cut position, duplicates collapse.
func cutsFromBytes(raw []byte, n int) []int {
	set := map[int]bool{}
	for _, b := range raw {
		p := 1 + int(b)%(n-1)
		set[p] = true
	}
	cuts := make([]int, 0, len(set)+2)
	cuts = append(cuts, 0)
	for p := range set {
		cuts = append(cuts, p)
	}
	sort.Ints(cuts)
	return append(cuts, n)
}

// FuzzParallelCuts feeds arbitrary cut vectors — including size-1 chunks and
// heavily unbalanced tilings — through the driver and asserts the result is
// bit-identical to the one-chunk run. The cut choice is pure placement; any
// valid vector must reproduce the same simulation.
func FuzzParallelCuts(f *testing.F) {
	f.Add(int64(1), []byte{3, 9})
	f.Add(int64(7), []byte{1, 1, 1, 1})
	f.Add(int64(42), []byte{200, 5, 30, 77})
	f.Add(int64(13), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		r := rand.New(rand.NewSource(seed))
		hostN := 4 + r.Intn(12)
		a, err := assign.UniformBlocks(hostN, 2, 3, 0)
		if err != nil {
			t.Skip()
		}
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(20)
		}
		cfg := Config{
			Delays: delays,
			Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 6, Seed: seed},
			Assign: a,
		}
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		rt := buildRoutes(cfg.Guest.Graph, cfg.Assign, nil, nil)
		seq, err := new(Arena).runCuts(&cfg, rt, oneChunk(&cfg))
		if err != nil {
			t.Fatalf("seq: %v", err)
		}
		cuts := cutsFromBytes(raw, hostN)
		par, err := new(Arena).runCuts(&cfg, rt, cuts)
		if err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("cuts %v: results differ:\nseq %+v\npar %+v", cuts, seq, par)
		}
	})
}
