package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

// randomGuest builds a random connected bounded-degree guest graph.
func randomGuest(r *rand.Rand, n int) guest.Graph {
	adj := make([][]int, n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[r.Intn(i)]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	extra := r.Intn(n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && len(adj[u]) < 6 && len(adj[v]) < 6 {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	return guest.NewCustom("fuzz", adj)
}

// randomAssignment places every column on 1-3 random hosts.
func randomAssignment(r *rand.Rand, hostN, m int) (*assign.Assignment, error) {
	owned := make([][]int, hostN)
	used := make([]map[int]bool, hostN)
	for i := range used {
		used[i] = map[int]bool{}
	}
	for c := 0; c < m; c++ {
		copies := 1 + r.Intn(3)
		for k := 0; k < copies; k++ {
			p := r.Intn(hostN)
			if !used[p][c] {
				used[p][c] = true
				owned[p] = append(owned[p], c)
			}
		}
	}
	return assign.FromOwned(hostN, m, owned)
}

// TestFuzzEngineVerifiesRandomWorkloads is the engine's acid test: arbitrary
// guest dependency structures, arbitrary replica placements, arbitrary
// delays — every database replica must still match the sequential reference,
// and both engines must agree.
func TestFuzzEngineVerifiesRandomWorkloads(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hostN := 2 + r.Intn(14)
		m := 1 + r.Intn(40)
		steps := 1 + r.Intn(10)
		g := randomGuest(r, m)
		a, err := randomAssignment(r, hostN, m)
		if err != nil {
			t.Logf("seed %d: assignment: %v", seed, err)
			return false
		}
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(1<<uint(r.Intn(8)))
		}
		var dbf guest.Factory
		if r.Intn(2) == 0 {
			dbf = guest.KVFactory(1 + r.Intn(16))
		}
		cfg := Config{
			Delays: delays,
			Guest: guest.Spec{
				Graph: g, Steps: steps, Seed: seed, NewDatabase: dbf,
			},
			Assign:    a,
			Bandwidth: 1 + r.Intn(4),
			Check:     true,
		}
		seq, err := Run(cfg)
		if err != nil {
			t.Logf("seed %d: seq: %v", seed, err)
			return false
		}
		if !seq.Checked {
			return false
		}
		cfg.Workers = 2 + r.Intn(4)
		par, err := Run(cfg)
		if err != nil {
			t.Logf("seed %d: par: %v", seed, err)
			return false
		}
		if *seq != *par {
			t.Logf("seed %d: engines disagree:\nseq %+v\npar %+v", seed, *seq, *par)
			return false
		}
		return true
	}
	// Pinned seeds run on every pass, ahead of the random draw. The last
	// one piled work at a line end and drew the non-increasing cut vector
	// [0 5 6 6] from splitPositionsWork.
	for _, seed := range []int64{0, 1, -4334184348019668387} {
		if !f(seed) {
			t.Fatalf("pinned seed %d failed", seed)
		}
	}
	cfgq := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfgq.MaxCount = 15
	}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzCustomOps runs random workloads under a non-default op to make
// sure the op plumbing reaches every replica identically.
func TestFuzzCustomOps(t *testing.T) {
	op := func(db uint64, node, step int, self uint64, ns []uint64) uint64 {
		v := db ^ self ^ (uint64(node+1) * uint64(step+1))
		for i, x := range ns {
			v = v*31 + x + uint64(i)
		}
		return v
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hostN := 2 + r.Intn(8)
		m := 2 + r.Intn(20)
		g := randomGuest(r, m)
		a, err := randomAssignment(r, hostN, m)
		if err != nil {
			return false
		}
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(16)
		}
		res, err := Run(Config{
			Delays: delays,
			Guest:  guest.Spec{Graph: g, Steps: 6, Seed: seed, Op: op},
			Assign: a,
			Check:  true,
		})
		return err == nil && res.Checked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomFaultPlan draws a plan mixing all four fault kinds with random
// parameters; roughly half the draws include each kind.
func randomFaultPlan(r *rand.Rand, hostN int) *fault.Plan {
	p := &fault.Plan{Seed: r.Uint64()}
	pickLink := func() int {
		if r.Intn(3) == 0 {
			return -1
		}
		return r.Intn(hostN - 1)
	}
	pickHost := func() int {
		if r.Intn(3) == 0 {
			return -1
		}
		return r.Intn(hostN)
	}
	if r.Intn(2) == 0 {
		p.Jitters = append(p.Jitters, fault.Jitter{
			Link: pickLink(), Amp: 1 + r.Intn(8), Prob: 0.05 + 0.9*r.Float64(),
		})
	}
	if r.Intn(2) == 0 {
		p.Outages = append(p.Outages, fault.Outage{
			Link: pickLink(), Window: 1 + r.Intn(12), Frac: 0.05 + 0.6*r.Float64(),
		})
	}
	if r.Intn(2) == 0 {
		p.Slowdowns = append(p.Slowdowns, fault.Slowdown{
			Host: pickHost(), Window: 1 + r.Intn(12), Frac: 0.05 + 0.9*r.Float64(),
			Limit: r.Intn(2),
		})
	}
	if r.Intn(2) == 0 {
		p.Crashes = append(p.Crashes, fault.Crash{
			Host: r.Intn(hostN), Step: 1 + int64(r.Intn(40)),
		})
	}
	return p
}

// TestFuzzEnginesAgreeUnderRandomFaults stresses the fault machinery the same
// way: random workloads plus random fault plans. Runs that crash-orphan a
// column must fail with UncomputableError from both engines (same columns);
// every other run must produce identical results and event streams.
func TestFuzzEnginesAgreeUnderRandomFaults(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hostN := 3 + r.Intn(12)
		m := 2 + r.Intn(24)
		steps := 1 + r.Intn(8)
		g := randomGuest(r, m)
		a, err := randomAssignment(r, hostN, m)
		if err != nil {
			t.Logf("seed %d: assignment: %v", seed, err)
			return false
		}
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(24)
		}
		cfg := Config{
			Delays:    delays,
			Guest:     guest.Spec{Graph: g, Steps: steps, Seed: seed},
			Assign:    a,
			Bandwidth: 1 + r.Intn(4),
			Faults:    randomFaultPlan(r, hostN),
		}
		seqBuf := obs.NewBuffer()
		cfg.Recorder = seqBuf
		seq, seqErr := Run(cfg)
		cfg.Workers = 2 + r.Intn(3)
		parBuf := obs.NewBuffer()
		cfg.Recorder = parBuf
		par, parErr := Run(cfg)
		var seqUnc, parUnc *UncomputableError
		if errors.As(seqErr, &seqUnc) {
			if !errors.As(parErr, &parUnc) {
				t.Logf("seed %d: seq uncomputable but par: %v", seed, parErr)
				return false
			}
			if !reflect.DeepEqual(seqUnc.Columns, parUnc.Columns) {
				t.Logf("seed %d: orphan columns differ: %v vs %v", seed, seqUnc.Columns, parUnc.Columns)
				return false
			}
			return true
		}
		if seqErr != nil || parErr != nil {
			t.Logf("seed %d: seq=%v par=%v", seed, seqErr, parErr)
			return false
		}
		if !reflect.DeepEqual(seq, par) {
			t.Logf("seed %d: results differ:\nseq %+v\npar %+v", seed, seq, par)
			return false
		}
		se, pe := seqBuf.Events(), parBuf.Events()
		if len(se) != len(pe) {
			t.Logf("seed %d: %d events != %d", seed, len(pe), len(se))
			return false
		}
		for i := range se {
			if se[i] != pe[i] {
				t.Logf("seed %d: event %d differs: seq %+v par %+v", seed, i, se[i], pe[i])
				return false
			}
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfgq.MaxCount = 12
	}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}
