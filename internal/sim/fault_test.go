package sim

import (
	"fmt"
	"strings"
	"testing"

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

func TestVerifyCatchesExtraUpdate(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	// sabotage: one replica applies a bogus extra update
	oc := &c.procs[3].cols[0]
	oc.db.Apply(guest.Update{Node: int(oc.col), Step: cfg.Guest.Steps + 1, Val: 0xdead})
	err := verify(cfg, []*chunk{c})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("corruption not caught: %v", err)
	}
}

func TestVerifyCatchesWrongHistory(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	// sabotage: replace a replica's database with one that applied a
	// different value at some step (same version, different digest)
	oc := &c.procs[2].cols[1]
	bad := guest.NewMixDB(int(oc.col), cfg.Guest.Seed)
	for s := 1; s <= cfg.Guest.Steps; s++ {
		bad.Apply(guest.Update{Node: int(oc.col), Step: s, Val: uint64(s) * 7})
	}
	oc.db = bad
	err := verify(cfg, []*chunk{c})
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corruption not caught: %v", err)
	}
}

func TestVerifyPassesCleanRun(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	if err := verify(cfg, []*chunk{c}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyMismatchMessages pins verify's two failure reports: the first
// replica in (chunk, position, column) order whose version or digest
// differs from the reference executor's is named with both values.
func TestVerifyMismatchMessages(t *testing.T) {
	cfg, rt := faultConfig(t)
	oracle, err := guest.RunDigest(cfg.Guest)
	if err != nil {
		t.Fatal(err)
	}
	// A replica that applied the right number of wrong updates.
	badHistory := func(col int) guest.Database {
		db := guest.NewMixDB(col, cfg.Guest.Seed)
		for s := 1; s <= cfg.Guest.Steps; s++ {
			db.Apply(guest.Update{Node: col, Step: s, Val: 0xbad})
		}
		return db
	}
	// Host 3 holds columns 4..7 and host 5 columns 8..11; each case
	// sabotages one replica on each, and verify reports host 3's.
	for _, tc := range []struct {
		name     string
		sabotage func(oc *ownedCol)
		want     string
	}{
		{"version", func(oc *ownedCol) {
			oc.db.Apply(guest.Update{Node: int(oc.col), Step: cfg.Guest.Steps + 1, Val: 0xdead})
		}, "sim: replica of db 5 at pos 3 has version 9, want 8"},
		{"digest", func(oc *ownedCol) { oc.db = badHistory(int(oc.col)) },
			fmt.Sprintf("sim: replica of db 5 at pos 3 has digest %#x, want %#x",
				badHistory(5).Digest(), oracle.FinalDigests[5])},
	} {
		c := runChunkToCompletion(t, cfg, rt)
		tc.sabotage(&c.procs[5].cols[2])
		tc.sabotage(&c.procs[3].cols[1])
		if err := verify(cfg, []*chunk{c}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: verify = %v, want %q", tc.name, err, tc.want)
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
	if v := c.procs[3].cols[0].db.Version(); v >= cfg.Guest.Steps {
		t.Fatalf("crashed host's replica reached version %d of %d", v, cfg.Guest.Steps)
	}
	if err := verify(cfg, []*chunk{c}); err != nil {
		t.Fatal(err)
	}
	oc := &c.procs[2].cols[0]
	oc.db.Apply(guest.Update{Node: int(oc.col), Step: cfg.Guest.Steps + 1, Val: 0xdead})
	if err := verify(cfg, []*chunk{c}); err == nil || !strings.Contains(err.Error(), "at pos 2 ") {
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
				if v := oc.db.Version(); v != 0 {
					t.Fatalf("dormant standby of db %d at pos %d has version %d", oc.col, i, v)
				}
			}
		}
	}
	if dormant == 0 {
		t.Fatal("no standby was provisioned")
	}
	if err := verify(cfg, []*chunk{c}); err != nil {
		t.Fatal(err)
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
	if _, err := collect(&Config{Delays: cfg.Delays, Assign: cfg.Assign, Guest: cfg.Guest}, []*chunk{c}); err == nil {
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
