package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

// This file retains the pre-compaction route builder verbatim (renamed
// ref*) as the differential oracle for the compact arena representation in
// route.go. The compact builder must agree with it structurally — same
// routes, same order, same destinations, same dense indexes, same sender
// index, same crossing counts — and, run through the engine, must produce a
// bit-identical event stream. compactFromRef converts a reference table
// into the compact layout through an independent code path, so an encoding
// bug in buildRoutes cannot cancel out in the comparison.

type refRoute struct {
	col       int32
	dir       int8
	sender    int32
	dests     []int32
	destDense []int32
}

type refRouteTable struct {
	routes         []refRoute
	bySender       [][][]int32
	crossR, crossL []int32
}

// buildRoutesRef is the old buildRoutes, kept bit-for-bit in behavior.
func buildRoutesRef(g guest.Graph, a *assign.Assignment, avoid []int, extra [][]int) *refRouteTable {
	rt := &refRouteTable{bySender: make([][][]int32, a.HostN)}
	var extraHolders [][]int
	if extra != nil {
		extraHolders = make([][]int, a.Columns)
		for p, cols := range extra {
			for _, col := range cols {
				extraHolders[col] = append(extraHolders[col], p)
			}
		}
	}
	for p := range rt.bySender {
		rt.bySender[p] = make([][]int32, len(a.Owned[p]))
	}
	dead := make(map[int]bool, len(avoid))
	for _, h := range avoid {
		dead[h] = true
	}
	liveHolders := func(col int) []int {
		hs := a.Holders[col]
		if len(dead) == 0 {
			return hs
		}
		needs := false
		for _, h := range hs {
			if dead[h] {
				needs = true
				break
			}
		}
		if !needs {
			return hs
		}
		live := make([]int, 0, len(hs))
		for _, h := range hs {
			if !dead[h] {
				live = append(live, h)
			}
		}
		return live
	}
	senderFor := func(hs []int, dest int) int {
		i := sort.SearchInts(hs, dest)
		switch {
		case i == 0:
			return hs[0]
		case i == len(hs):
			return hs[len(hs)-1]
		default:
			if dest-hs[i-1] <= hs[i]-dest {
				return hs[i-1]
			}
			return hs[i]
		}
	}
	type chainKey struct {
		sender int
		dir    int8
	}
	for col := 0; col < a.Columns; col++ {
		destSet := make(map[int]bool)
		for _, nb := range g.Neighbors(col) {
			for _, p := range a.Holders[nb] {
				if !dead[p] {
					destSet[p] = true
				}
			}
			if extraHolders != nil {
				for _, p := range extraHolders[nb] {
					if !dead[p] {
						destSet[p] = true
					}
				}
			}
		}
		for _, p := range a.Holders[col] {
			delete(destSet, p)
		}
		if len(destSet) == 0 {
			continue
		}
		hs := liveHolders(col)
		chains := make(map[chainKey][]int32)
		for dest := range destSet {
			s := senderFor(hs, dest)
			dir := int8(1)
			if dest < s {
				dir = -1
			}
			k := chainKey{sender: s, dir: dir}
			chains[k] = append(chains[k], int32(dest))
		}
		keys := make([]chainKey, 0, len(chains))
		for k := range chains {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].sender != keys[j].sender {
				return keys[i].sender < keys[j].sender
			}
			return keys[i].dir < keys[j].dir
		})
		for _, k := range keys {
			dests := chains[k]
			if k.dir > 0 {
				sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
			} else {
				sort.Slice(dests, func(i, j int) bool { return dests[i] > dests[j] })
			}
			id := int32(len(rt.routes))
			rt.routes = append(rt.routes, refRoute{
				col:    int32(col),
				dir:    k.dir,
				sender: int32(k.sender),
				dests:  dests,
			})
			idx := sort.SearchInts(a.Owned[k.sender], col)
			rt.bySender[k.sender][idx] = append(rt.bySender[k.sender][idx], id)
		}
	}
	rt.refResolveDestDense(g, a, extra)
	rt.refCountCrossings(a.HostN)
	return rt
}

func (rt *refRouteTable) refResolveDestDense(g guest.Graph, a *assign.Assignment, extra [][]int) {
	universes := make([][]int32, a.HostN)
	uniFor := func(pos int32) []int32 {
		if universes[pos] == nil {
			var standby []int
			if extra != nil {
				standby = extra[pos]
			}
			universes[pos] = appendUniverse(nil, g.Neighbors, a.Owned[pos], standby)
		}
		return universes[pos]
	}
	for i := range rt.routes {
		r := &rt.routes[i]
		r.destDense = make([]int32, len(r.dests))
		for j, d := range r.dests {
			dense := denseIndex(uniFor(d), r.col)
			if dense < 0 {
				panic(fmt.Sprintf("sim: ref route %d delivers col %d to pos %d, which holds no neighbor of it", i, r.col, d))
			}
			r.destDense[j] = dense
		}
	}
}

func (rt *refRouteTable) refCountCrossings(hostN int) {
	if hostN < 2 {
		return
	}
	diffR := make([]int32, hostN)
	diffL := make([]int32, hostN)
	for _, r := range rt.routes {
		last := r.dests[len(r.dests)-1]
		if r.dir > 0 {
			diffR[r.sender]++
			diffR[last]--
		} else {
			diffL[last]++
			diffL[r.sender]--
		}
	}
	rt.crossR = make([]int32, hostN-1)
	rt.crossL = make([]int32, hostN-1)
	var sumR, sumL int32
	for i := 0; i < hostN-1; i++ {
		sumR += diffR[i]
		sumL += diffL[i]
		rt.crossR[i] = sumR
		rt.crossL[i] = sumL
	}
}

// compactFromRef mechanically encodes a reference table into the compact
// layout — per-route, no interning — so the engine can consume the
// reference builder's output directly.
func compactFromRef(ref *refRouteTable, g guest.Graph, a *assign.Assignment, extra [][]int) *routeTable {
	rt := newRouteShell(g, a, extra)
	rt.routes = make([]routeRec, len(ref.routes))
	lasts := make([]int32, len(ref.routes))
	for i := range ref.routes {
		rr := &ref.routes[i]
		off := int32(len(rt.chainArena))
		prev := rr.sender
		for j, d := range rr.dests {
			delta := d - prev
			if rr.dir < 0 {
				delta = prev - d
			}
			rt.chainArena = append(rt.chainArena, delta, rr.destDense[j])
			prev = d
		}
		rt.routes[i] = routeRec{col: rr.col, sender: rr.sender, off: off, n: int32(len(rr.dests)), dir: rr.dir}
		lasts[i] = rr.dests[len(rr.dests)-1]
	}
	for p := 0; p < a.HostN; p++ {
		for slot := range ref.bySender[p] {
			s := rt.senderBase[p] + int32(slot)
			rt.slotOff[s] = int32(len(rt.routeIDs))
			rt.routeIDs = append(rt.routeIDs, ref.bySender[p][slot]...)
		}
	}
	rt.slotOff[len(rt.slotOff)-1] = int32(len(rt.routeIDs))
	rt.countCrossings(a.HostN, lasts)
	return rt
}

func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RouteDifferential builds cfg's route table with both the production and
// reference builders, checks them structurally identical, and (when events
// is true) runs one chunk once per table asserting bit-identical
// obs event streams. Exported so the corpus test in package sim_test (which
// can import internal/verify without a cycle) can drive it.
func RouteDifferential(cfg Config, events bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var crashed []int
	if cfg.Faults != nil {
		crashed = cfg.Faults.CrashedHosts()
		if len(crashed) > 0 {
			if orphans := orphanedColumns(&cfg, crashed); len(orphans) > 0 {
				return nil // Run would refuse this config; nothing to compare
			}
		}
	}
	prep := func() Config {
		c := cfg
		c.Workers = 0
		c.Check = false
		c.Telemetry = nil
		if c.Adapt.Enabled() {
			c.ast = newAdaptState(&c, crashed)
		}
		return c
	}
	cNew := prep()
	var extra [][]int
	if cNew.ast != nil {
		extra = cNew.ast.extraCols
	}
	rtNew := buildRoutes(cfg.Guest.Graph, cfg.Assign, crashed, extra)
	ref := buildRoutesRef(cfg.Guest.Graph, cfg.Assign, crashed, extra)

	if len(rtNew.routes) != len(ref.routes) {
		return fmt.Errorf("route count: compact %d, ref %d", len(rtNew.routes), len(ref.routes))
	}
	for id := range ref.routes {
		rr := &ref.routes[id]
		nr := &rtNew.routes[id]
		if nr.col != rr.col || nr.sender != rr.sender || nr.dir != rr.dir || int(nr.n) != len(rr.dests) {
			return fmt.Errorf("route %d header: compact {col %d sender %d dir %d n %d}, ref {col %d sender %d dir %d n %d}",
				id, nr.col, nr.sender, nr.dir, nr.n, rr.col, rr.sender, rr.dir, len(rr.dests))
		}
		if got := rtNew.destsOf(int32(id)); !eqI32(got, rr.dests) {
			return fmt.Errorf("route %d dests: compact %v, ref %v", id, got, rr.dests)
		}
		if got := rtNew.destDenseOf(int32(id)); !eqI32(got, rr.destDense) {
			return fmt.Errorf("route %d destDense: compact %v, ref %v", id, got, rr.destDense)
		}
	}
	for p := range ref.bySender {
		for slot, ids := range ref.bySender[p] {
			off, n := rtNew.routeSpan(p, slot)
			if got := rtNew.routeIDs[off : off+n]; !eqI32(got, ids) && !(len(got) == 0 && len(ids) == 0) {
				return fmt.Errorf("routeSpan(%d, %d): compact %v, ref %v", p, slot, got, ids)
			}
		}
	}
	if !eqI32(rtNew.crossR, ref.crossR) || !eqI32(rtNew.crossL, ref.crossL) {
		return fmt.Errorf("crossing counts differ: compact R%v L%v, ref R%v L%v",
			rtNew.crossR, rtNew.crossL, ref.crossR, ref.crossL)
	}
	if err := rtNew.validate(cfg.Assign.HostN); err != nil {
		return err
	}
	if !events {
		return nil
	}

	runWith := func(rt *routeTable) ([]obs.Event, *Result, error) {
		c := prep()
		buf := obs.NewBuffer()
		c.Recorder = buf
		res, err := new(Arena).runCuts(&c, rt, oneChunk(&c))
		return buf.Events(), res, err
	}
	evNew, resNew, errNew := runWith(rtNew)
	evRef, resRef, errRef := runWith(compactFromRef(ref, cfg.Guest.Graph, cfg.Assign, extra))
	if (errNew == nil) != (errRef == nil) {
		return fmt.Errorf("engine outcome differs: compact err %v, ref err %v", errNew, errRef)
	}
	if errNew != nil {
		if errNew.Error() != errRef.Error() {
			return fmt.Errorf("engine errors differ: compact %v, ref %v", errNew, errRef)
		}
		return nil
	}
	if len(evNew) != len(evRef) {
		return fmt.Errorf("event stream length: compact %d, ref %d", len(evNew), len(evRef))
	}
	for i := range evNew {
		if evNew[i] != evRef[i] {
			return fmt.Errorf("event %d differs: compact %+v, ref %+v", i, evNew[i], evRef[i])
		}
	}
	if resNew.HostSteps != resRef.HostSteps || resNew.Messages != resRef.Messages ||
		resNew.MessageHops != resRef.MessageHops || resNew.DeliveredValues != resRef.DeliveredValues {
		return fmt.Errorf("results differ: compact %+v, ref %+v", resNew, resRef)
	}
	return nil
}

// randomDiffConfig builds a randomized replicated assignment on a small
// line, mirroring TestRouteCoverage's generator, as a differential subject.
func randomDiffConfig(r *rand.Rand) (Config, error) {
	hostN := 2 + r.Intn(7)
	m := 2 + r.Intn(12)
	owned := make([][]int, hostN)
	used := make([]map[int]bool, hostN)
	for i := range used {
		used[i] = map[int]bool{}
	}
	addCopy := func(c, p int) {
		if !used[p][c] {
			used[p][c] = true
			owned[p] = append(owned[p], c)
		}
	}
	for c := 0; c < m; c++ {
		addCopy(c, r.Intn(hostN))
		for extra := 0; extra < r.Intn(3); extra++ {
			addCopy(c, r.Intn(hostN))
		}
	}
	a, err := assign.FromOwned(hostN, m, owned)
	if err != nil {
		return Config{}, err
	}
	delays := make([]int, hostN-1)
	for i := range delays {
		delays[i] = 1 + r.Intn(5)
	}
	return Config{
		Delays: delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(m), Steps: 2 + r.Intn(7), Seed: r.Int63()},
		Assign: a,
	}, nil
}

// TestRouteCompactDifferentialRandom drives RouteDifferential (structure +
// event streams) over random replicated assignments; the verify-corpus
// variant lives in package sim_test.
func TestRouteCompactDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		cfg, err := randomDiffConfig(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := RouteDifferential(cfg, trial < 20); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzRouteCompact compares the delivered (pos, col, step, value) multisets
// of a chunk run under the compact builder against one under the reference
// builder's table, plus the structural differential.
func FuzzRouteCompact(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(12345))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		cfg, err := randomDiffConfig(r)
		if err != nil {
			t.Skip()
		}
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		if err := RouteDifferential(cfg, false); err != nil {
			t.Fatal(err)
		}
		type deliv struct {
			pos   int
			col   int32
			step  int32
			value uint64
		}
		runTapped := func(rt *routeTable) []deliv {
			var out []deliv
			c := newChunk(new(chunk), &cfg, rt, 0, cfg.hostN())
			c.deliverTap = func(pos int, col, step int32, value uint64) {
				out = append(out, deliv{pos, col, step, value})
			}
			maxSteps := cfg.maxSteps()
			for c.remaining > 0 {
				if c.now > maxSteps {
					t.Fatal("step cap exceeded")
				}
				if c.step() {
					c.now++
					continue
				}
				next, ok := c.nextEvent()
				if !ok {
					t.Fatal("stalled")
				}
				if next <= c.now {
					next = c.now + 1
				}
				c.now = next
			}
			sort.Slice(out, func(i, j int) bool {
				if out[i].pos != out[j].pos {
					return out[i].pos < out[j].pos
				}
				if out[i].col != out[j].col {
					return out[i].col < out[j].col
				}
				if out[i].step != out[j].step {
					return out[i].step < out[j].step
				}
				return out[i].value < out[j].value
			})
			return out
		}
		got := runTapped(buildRoutes(cfg.Guest.Graph, cfg.Assign, nil, nil))
		want := runTapped(compactFromRef(buildRoutesRef(cfg.Guest.Graph, cfg.Assign, nil, nil), cfg.Guest.Graph, cfg.Assign, nil))
		if len(got) != len(want) {
			t.Fatalf("delivery count: compact %d, ref %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("delivery %d: compact %+v, ref %+v", i, got[i], want[i])
			}
		}
	})
}
