package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
)

// The verifier must catch corrupted replicas: these tests drive the chunk
// machinery directly (same code path as Run) and then sabotage state before
// verification.

func faultConfig(t *testing.T) (*Config, *routeTable) {
	t.Helper()
	a, err := assign.UniformBlocks(8, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Delays: []int{1, 2, 1, 3, 1, 2, 1},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 8, Seed: 9},
		Assign: a,
		Check:  true,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg, buildRoutes(cfg.Guest.Graph, cfg.Assign, nil, nil)
}

func runChunkToCompletion(t *testing.T, cfg *Config, rt *routeTable) *chunk {
	t.Helper()
	c := newChunk(new(chunk), cfg, rt, 0, cfg.hostN())
	for c.remaining > 0 {
		if c.step() {
			c.now++
			continue
		}
		next, ok := c.nextEvent()
		if !ok {
			t.Fatal("stalled")
		}
		c.now = next
	}
	return c
}

// verifyChunk runs verify over c against the reference executor.
func verifyChunk(cfg *Config, c *chunk) error {
	return verify(cfg, []*chunk{c}, func() (*guest.DigestResult, error) { return guest.RunDigest(cfg.Guest) })
}

// applyExtra sabotages replica j of p with one bogus update past the last
// guest step, on whichever path holds its database: the inline state of
// the default database or p.dbs for a custom factory.
func applyExtra(p *proc, j, steps int) {
	oc := &p.cols[j]
	if p.dbs == nil {
		oc.state = guest.MixFold(oc.state, 0xdead)
		oc.next++
		return
	}
	p.dbs[j].Apply(guest.Update{Node: int(oc.col), Step: steps + 1, Val: 0xdead})
}

// replaceDB sabotages replica j of p with database db's state.
func replaceDB(p *proc, j int, db guest.Database) {
	if p.dbs == nil {
		p.cols[j].state = db.Digest()
		p.cols[j].next = int32(db.Version()) + 1
		return
	}
	p.dbs[j] = db
}

// version reports replica j of p's database version on either path.
func version(p *proc, j int) int {
	if p.dbs == nil {
		return int(p.cols[j].next) - 1
	}
	return p.dbs[j].Version()
}

func TestVerifyCatchesExtraUpdate(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	// sabotage: one replica applies a bogus extra update
	applyExtra(&c.procs[3], 0, cfg.Guest.Steps)
	err := verifyChunk(cfg, c)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("corruption not caught: %v", err)
	}
}

func TestVerifyCatchesWrongHistory(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	// sabotage: replace a replica's database with one that applied a
	// different value at some step (same version, different digest)
	col := int(c.procs[2].cols[1].col)
	bad := guest.NewMixDB(col, cfg.Guest.Seed)
	for s := 1; s <= cfg.Guest.Steps; s++ {
		bad.Apply(guest.Update{Node: col, Step: s, Val: uint64(s) * 7})
	}
	replaceDB(&c.procs[2], 1, bad)
	err := verifyChunk(cfg, c)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corruption not caught: %v", err)
	}
}

func TestVerifyPassesCleanRun(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	if err := verifyChunk(cfg, c); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyMismatchMessages pins verify's two failure reports: the first
// replica in (chunk, position, column) order whose version or digest
// differs from the reference executor's is named with both values. The
// default database is checked in the replica record, a custom factory's
// in the proc's side array; both must report alike.
func TestVerifyMismatchMessages(t *testing.T) {
	for _, db := range []struct {
		name    string
		factory guest.Factory
	}{{"mix", nil}, {"kv", guest.KVFactory(4)}} {
		cfg, rt := faultConfig(t)
		cfg.Guest.NewDatabase = db.factory
		oracle, err := guest.RunDigest(cfg.Guest)
		if err != nil {
			t.Fatal(err)
		}
		// A replica that applied the right number of wrong updates.
		badHistory := func(col int) guest.Database {
			db := cfg.Guest.Factory()(col, cfg.Guest.Seed)
			for s := 1; s <= cfg.Guest.Steps; s++ {
				db.Apply(guest.Update{Node: col, Step: s, Val: 0xbad})
			}
			return db
		}
		// Host 3 holds columns 4..7 and host 5 columns 8..11; each case
		// sabotages one replica on each, and verify reports host 3's.
		for _, tc := range []struct {
			name     string
			sabotage func(p *proc, j int)
			want     string
		}{
			{"version", func(p *proc, j int) { applyExtra(p, j, cfg.Guest.Steps) },
				"sim: replica of db 5 at pos 3 has version 9, want 8"},
			{"digest", func(p *proc, j int) { replaceDB(p, j, badHistory(int(p.cols[j].col))) },
				fmt.Sprintf("sim: replica of db 5 at pos 3 has digest %#x, want %#x",
					badHistory(5).Digest(), oracle.FinalDigests[5])},
		} {
			c := runChunkToCompletion(t, cfg, rt)
			if (c.procs[3].dbs == nil) != (db.factory == nil) {
				t.Fatalf("%s: side array present = %v with factory %v", db.name, c.procs[3].dbs != nil, db.factory != nil)
			}
			tc.sabotage(&c.procs[5], 2)
			tc.sabotage(&c.procs[3], 1)
			if err := verifyChunk(cfg, c); err == nil || err.Error() != tc.want {
				t.Errorf("%s/%s: verify = %v, want %q", db.name, tc.name, err, tc.want)
			}
		}
	}
}

// TestVerifySkipsCrashedHosts crash-stops host 3 at step 3: its replicas
// stop short of the final version and are passed over, while every other
// host is still checked.
func TestVerifySkipsCrashedHosts(t *testing.T) {
	cfg, _ := faultConfig(t)
	cfg.Faults = &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: 3, Step: 3}}}
	c := runChunkToCompletion(t, cfg, buildRoutes(cfg.Guest.Graph, cfg.Assign, []int{3}, nil))
	if v := version(&c.procs[3], 0); v >= cfg.Guest.Steps {
		t.Fatalf("crashed host's replica reached version %d of %d", v, cfg.Guest.Steps)
	}
	if err := verifyChunk(cfg, c); err != nil {
		t.Fatal(err)
	}
	applyExtra(&c.procs[2], 0, cfg.Guest.Steps)
	if err := verifyChunk(cfg, c); err == nil || !strings.Contains(err.Error(), "at pos 2 ") {
		t.Fatalf("live host's corruption not caught beside a crashed host: %v", err)
	}
}

// TestVerifySkipsDormantStandbys provisions adaptive standbys and never
// activates them: they end at version 0 and verify passes them over.
func TestVerifySkipsDormantStandbys(t *testing.T) {
	cfg, _ := faultConfig(t)
	cfg.Adapt = &adapt.Policy{Epoch: 4, Threshold: 0.25, MaxExtra: 1, Budget: 1}
	cfg.ast = newAdaptState(cfg, nil)
	c := runChunkToCompletion(t, cfg, buildRoutes(cfg.Guest.Graph, cfg.Assign, nil, cfg.ast.extraCols))
	dormant := 0
	for i := range c.procs {
		for j := range c.procs[i].cols {
			if oc := &c.procs[i].cols[j]; oc.dormant {
				dormant++
				if v := version(&c.procs[i], j); v != 0 {
					t.Fatalf("dormant standby of db %d at pos %d has version %d", oc.col, i, v)
				}
			}
		}
	}
	if dormant == 0 {
		t.Fatal("no standby was provisioned")
	}
	if err := verifyChunk(cfg, c); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyReferenceJoinedOnStepCap ends Check-on runs in a step-cap
// error long before their reference executor could finish on its own: Run
// must still wait for the reference goroutine, on one chunk and on two.
func TestVerifyReferenceJoinedOnStepCap(t *testing.T) {
	const cols, steps = 128, 1000
	a, err := assign.SingleCopyBlocks(4, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		var calls atomic.Int64
		op := func(db uint64, node, step int, self uint64, nb []uint64) uint64 {
			calls.Add(1)
			return guest.ComputeValue(db, node, step, self, nb)
		}
		before := runtime.NumGoroutine()
		_, err := Run(Config{
			Delays:   []int{1000, 1000, 1000},
			Guest:    guest.Spec{Graph: guest.NewLinearArray(cols), Steps: steps, Seed: 1, Op: op},
			Assign:   a,
			MaxSteps: 10,
			Workers:  workers,
			Check:    true,
		})
		if err == nil || !strings.Contains(err.Error(), "exceeded step cap") {
			t.Fatalf("workers %d: err = %v, want a step-cap error", workers, err)
		}
		// The reference alone computes cols*steps pebbles, the capped
		// engine a few dozen: fewer calls mean Run returned first.
		if n := calls.Load(); n < cols*steps {
			t.Fatalf("workers %d: Run returned after %d pebble computes, before its reference's %d",
				workers, n, cols*steps)
		}
		// A goroutine that has signalled its end, this run's or an earlier
		// test's, may still be leaving the scheduler.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers %d: %d goroutines after the run, %d before", workers, n, before)
		}
	}
}

func TestDuplicateDeliveryDetected(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := newChunk(new(chunk), cfg, rt, 0, cfg.hostN())
	// inject the same value twice at a position that consumes it
	if len(rt.routes) == 0 {
		t.Skip("no routes")
	}
	r := rt.routes[0]
	pos := int(rt.destsOf(0)[0])
	dense := rt.destDenseOf(0)[0]
	c.deliverValue(pos, 0, r.col, dense, 1, 42)
	c.deliverValue(pos, 0, r.col, dense, 1, 42)
	if c.duplicates != 1 {
		t.Fatalf("duplicates %d", c.duplicates)
	}
	// collect() must turn duplicates into an error
	c.remaining = 0
	if _, err := collect(&Config{Delays: cfg.Delays, Assign: cfg.Assign, Guest: cfg.Guest}, []*chunk{c}, nil); err == nil {
		t.Fatal("duplicate delivery not reported")
	}
}

// Work bound: a workstation computes one pebble per step, so HostSteps is at
// least load * guest steps for fully-loaded processors.
func TestWorkBoundHolds(t *testing.T) {
	a, err := assign.UniformBlocks(4, 4, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Delays: []int{1, 1, 1},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 10, Seed: 1},
		Assign: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostSteps < int64(a.Load())*10 {
		t.Fatalf("host steps %d below work bound %d", res.HostSteps, a.Load()*10)
	}
}
