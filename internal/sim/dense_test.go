package sim

import (
	"testing"
	"unsafe"

	"latencyhide/internal/guest"
)

func singleColKnow() denseKnow {
	return newKnow([]int32{7}, []int32{1})
}

func TestColUniverse(t *testing.T) {
	g := guest.NewLinearArray(10)
	u := appendUniverse(nil, g.Neighbors, []int{3, 4})
	want := []int32{2, 3, 4, 5}
	if len(u) != len(want) {
		t.Fatalf("universe %v, want %v", u, want)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("universe %v, want %v", u, want)
		}
	}
	for i, c := range want {
		if d := denseIndex(u, c); d != int32(i) {
			t.Errorf("denseIndex(%d) = %d, want %d", c, d, i)
		}
	}
	if d := denseIndex(u, 9); d != -1 {
		t.Errorf("denseIndex(9) = %d, want -1", d)
	}
	if appendUniverse(nil, g.Neighbors, nil) != nil {
		t.Error("empty owned list must give empty universe")
	}
}

// The sliding window of the engine: put step s, retire step s-2, forever.
// The ring must wrap in place without ever growing.
func TestDenseRingWrapNoGrowth(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 200; s++ {
		if head := k.put(0, s, uint64(s)*3); head != -1 {
			t.Fatalf("step %d: unexpected waiter chain %d", s, head)
		}
		if s > 2 {
			k.consume(0, s-2)
		}
		if v, ok := k.get(0, s); !ok || v != uint64(s)*3 {
			t.Fatalf("step %d lost", s)
		}
		if s > 1 {
			if _, ok := k.get(0, s-1); !ok {
				t.Fatalf("step %d prematurely gone", s-1)
			}
		}
	}
	if k.grows != 0 {
		t.Errorf("sliding window grew the ring %d times", k.grows)
	}
	if k.slots != initRingSlots {
		t.Errorf("slots = %d, want %d", k.slots, initRingSlots)
	}
	if k.live != 2 {
		t.Errorf("live = %d, want 2", k.live)
	}
}

// Two live steps that collide mod the ring size force a growth that must
// rehome every live slot conflict-free.
func TestDenseRingGrowthRehomes(t *testing.T) {
	k := singleColKnow()
	k.put(0, 1, 100)
	k.put(0, 1+initRingSlots, 200) // same residue as step 1: must grow
	if k.grows != 1 {
		t.Fatalf("grows = %d, want 1", k.grows)
	}
	if v, ok := k.get(0, 1); !ok || v != 100 {
		t.Fatal("step 1 lost across growth")
	}
	if v, ok := k.get(0, 1+initRingSlots); !ok || v != 200 {
		t.Fatal("colliding step lost across growth")
	}
	if k.slots <= initRingSlots {
		t.Errorf("slots = %d did not grow", k.slots)
	}
	// A colliding span wider than double the capacity must grow past one
	// doubling, straight to a capacity covering the whole live span.
	k2 := singleColKnow()
	k2.put(0, 1, 1)
	k2.put(0, 1001, 2) // 1001 ≡ 1 mod 4: conflict, span 1001
	if _, ok := k2.get(0, 1); !ok {
		t.Fatal("step 1 lost")
	}
	if _, ok := k2.get(0, 1001); !ok {
		t.Fatal("step 1001 lost")
	}
	if int(k2.slots) < 1001 {
		t.Errorf("slots = %d, want >= span 1001", k2.slots)
	}
}

// A pending waiter anchor must hide the value from get/has, survive consume,
// and
// hand its chain head back to put exactly once.
func TestDenseWaiterAnchor(t *testing.T) {
	k := singleColKnow()
	s := k.waiterSlot(0, 5)
	s.waitHead = 42 // chain a fake pool node, as addWaiter does
	if _, ok := k.get(0, 5); ok {
		t.Fatal("pending slot readable as value")
	}
	if k.has(0, 5) {
		t.Fatal("pending slot reported known")
	}
	k.consume(0, 5) // engine never consumes a pending slot; must be a no-op
	if k.size() != 1 {
		t.Fatalf("consume removed a pending anchor: size %d", k.size())
	}
	if head := k.put(0, 5, 77); head != 42 {
		t.Fatalf("put returned chain %d, want 42", head)
	}
	if v, ok := k.get(0, 5); !ok || v != 77 {
		t.Fatal("value missing after resolving waiters")
	}
	if head := k.put(0, 5, 77); head != -1 {
		t.Fatalf("second put returned chain %d, want -1", head)
	}
}

// A growth spike must be temporary: once the spiked values retire, the ring
// shrinks back to initRingSlots and only slotsPeak remembers the spike. The
// 32-slot ring shrinks at each quarter crossing: to the 8 slots its 8
// survivors span, then home to initRingSlots once 2 are left.
func TestDenseRingShrinkAfterSpike(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 32; s++ {
		k.put(0, s, uint64(s))
	}
	if k.slots != 32 {
		t.Fatalf("slots = %d after spike, want 32", k.slots)
	}
	for s := int32(1); s <= 24; s++ {
		k.consume(0, s)
	}
	if k.shrinks != 1 || k.slots != 8 {
		t.Fatalf("shrinks = %d slots = %d at live 8, want 1 and 8", k.shrinks, k.slots)
	}
	for s := int32(25); s <= 32; s++ {
		if v, ok := k.get(0, s); !ok || v != uint64(s) {
			t.Fatalf("step %d lost across shrink", s)
		}
	}
	for s := int32(25); s <= 30; s++ {
		k.consume(0, s)
	}
	if k.shrinks != 2 {
		t.Fatalf("shrinks = %d, want 2", k.shrinks)
	}
	if k.slots != initRingSlots {
		t.Fatalf("slots = %d after drain, want %d", k.slots, initRingSlots)
	}
	if k.slotsPeak != 32 {
		t.Fatalf("slotsPeak = %d, want 32 (the spike)", k.slotsPeak)
	}
	for s := int32(31); s <= 32; s++ {
		if v, ok := k.get(0, s); !ok || v != uint64(s) {
			t.Fatalf("step %d lost across shrink", s)
		}
	}
	if k.live != 2 {
		t.Fatalf("live = %d, want 2", k.live)
	}
}

// Shrink must rehome surviving steps whose residues wrap around the smaller
// ring: survivors {6,7,8,9} land at residues {2,3,0,1} mod 4.
func TestDenseRingShrinkWrapBoundary(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 16; s++ {
		k.put(0, s, uint64(s)*11)
	}
	if k.slots != 16 {
		t.Fatalf("slots = %d, want 16", k.slots)
	}
	for s := int32(1); s <= 5; s++ {
		k.consume(0, s)
	}
	for s := int32(10); s <= 16; s++ {
		k.consume(0, s)
	}
	if k.shrinks != 1 || k.slots != initRingSlots {
		t.Fatalf("shrinks = %d slots = %d, want 1 and %d", k.shrinks, k.slots, initRingSlots)
	}
	for s := int32(6); s <= 9; s++ {
		if v, ok := k.get(0, s); !ok || v != uint64(s)*11 {
			t.Fatalf("step %d lost across wrapping shrink", s)
		}
	}
}

// A pending waiter anchor must ride through a shrink with its chain intact.
func TestDenseWaiterSurvivesShrink(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 16; s++ {
		if s != 10 {
			k.put(0, s, uint64(s))
		}
	}
	ws := k.waiterSlot(0, 10)
	ws.waitHead = 42 // chain a fake pool node, as addWaiter does
	for _, s := range []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16} {
		k.consume(0, s)
	}
	if k.shrinks != 1 || k.slots != initRingSlots {
		t.Fatalf("shrinks = %d slots = %d, want 1 and %d", k.shrinks, k.slots, initRingSlots)
	}
	if k.size() != 4 {
		t.Fatalf("size = %d, want 4 (3 values + 1 pending)", k.size())
	}
	if head := k.put(0, 10, 99); head != 42 {
		t.Fatalf("put after shrink returned chain %d, want 42", head)
	}
	for s := int32(11); s <= 13; s++ {
		if _, ok := k.get(0, s); !ok {
			t.Fatalf("step %d lost across shrink", s)
		}
	}
}

// Sparse survivors spanning more than the target capacity must refuse to
// shrink (capacity >= span is the residue-distinctness invariant).
func TestDenseRingShrinkRefusesWideSpan(t *testing.T) {
	k := singleColKnow()
	k.put(0, 1, 1)
	k.put(0, 33, 2) // 33 ≡ 1 mod 4: conflict, span 33 -> cap 64
	if k.slots != 64 {
		t.Fatalf("slots = %d, want 64", k.slots)
	}
	for s := int32(2); s <= 16; s++ {
		k.put(0, s, uint64(s))
	}
	// live 17 -> 16 crosses len/4, but survivors {1..15, 33} span 33 > 32:
	// the shrink must refuse rather than break residue distinctness.
	k.consume(0, 16)
	if k.shrinks != 0 {
		t.Fatalf("shrank with live span still wide: %d", k.shrinks)
	}
	if _, ok := k.get(0, 33); !ok {
		t.Fatal("step 33 lost")
	}
	for s := int32(1); s <= 15; s++ {
		k.consume(0, s)
	}
	k.consume(0, 33) // live crosses 0: drained ring finally shrinks home
	if k.shrinks != 1 || k.slots != initRingSlots {
		t.Fatalf("drained ring did not shrink: shrinks %d slots %d", k.shrinks, k.slots)
	}
}

// Engine-level retire-on-frontier: a fault-free run must finish with every
// knowledge store empty and every ring back at its initial capacity — eager
// retirement frees each value as the last local consumer advances past it,
// and the final retirement in a grown ring shrinks it home.
func TestEagerRetirementDrainsKnowledge(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	for i := range c.procs {
		p := &c.procs[i]
		if p.know.live != 0 {
			t.Fatalf("pos %d: %d live slots after completion", i, p.know.live)
		}
		if want := int32(len(p.know.universe) * initRingSlots); p.know.slots != want {
			t.Fatalf("pos %d: %d slots after completion, want %d", i, p.know.slots, want)
		}
	}
}

// FuzzDenseKnowledge drives random (col, step) operation sequences against
// the dense store and a built-in map oracle that models the retirement
// counts: a value lands owing its column's consumer count, each consume
// pays one, and the last retires it. The universe is fixed and small so
// rings collide and grow; steps span enough range to force multi-doubling
// growth and wraparound. Shrinks fire inside consume, so every shrink is
// checked against the oracle too: the live count, every stored value and
// count (final sweep), and the floor/peak slot invariants must hold after it.
func FuzzDenseKnowledge(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 1, 200, 0, 1, 1, 8, 0, 0, 1, 200, 0, 2, 1, 200, 0, 2, 1, 200, 0})
	f.Add([]byte{3, 2, 5, 0, 1, 2, 5, 0, 0, 2, 5, 0, 3, 3, 9, 1, 2, 3, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		universe := []int32{2, 5, 7, 9, 100}
		cons := []int32{1, 2, 3, 1, 4}
		k := newKnow(universe, cons)
		known := map[uint64]uint64{} // (dense, step) -> value
		owed := map[uint64]int32{}   // consumes left before retirement
		pending := map[uint64]bool{} // waiter anchors
		key := func(ci, step int32) uint64 { return uint64(ci)<<32 | uint64(step) }
		check := func(ci, step int32) {
			ov, ook := known[key(ci, step)]
			v, ok := k.get(ci, step)
			if ok != ook || (ok && v != ov) {
				t.Fatalf("(%d,%d): dense %d,%v oracle %d,%v", universe[ci], step, v, ok, ov, ook)
			}
			if ok {
				if got := -k.rings[ci].at(step).waitHead; got != owed[key(ci, step)] {
					t.Fatalf("(%d,%d): count %d, oracle %d", universe[ci], step, got, owed[key(ci, step)])
				}
			}
		}
		for len(data) >= 4 {
			op, ci := data[0]&3, int32(data[1])%int32(len(universe))
			step := 1 + int32(data[2]) | int32(data[3]&0x0f)<<8
			data = data[4:]
			kk := key(ci, step)
			switch op {
			case 0: // get
			case 1: // put
				val := uint64(step)*1000 + uint64(universe[ci])
				head := k.put(ci, step, val)
				if pending[kk] {
					if head < 0 {
						t.Fatalf("put(%d,%d) dropped a pending waiter chain", universe[ci], step)
					}
					delete(pending, kk)
				} else if head != -1 {
					t.Fatalf("put(%d,%d) invented waiter chain %d", universe[ci], step, head)
				}
				if _, ok := known[kk]; !ok {
					owed[kk] = cons[ci]
				}
				known[kk] = val
			case 2: // consume: a no-op unless the value is known
				k.consume(ci, step)
				if _, ok := known[kk]; ok {
					if owed[kk]--; owed[kk] == 0 {
						delete(known, kk)
						delete(owed, kk)
					}
				}
			default: // wait: engine only waits when the value is unknown
				if k.has(ci, step) {
					continue
				}
				s := k.waiterSlot(ci, step)
				if s.step != step {
					t.Fatalf("waiterSlot(%d,%d) claimed step %d", universe[ci], step, s.step)
				}
				s.waitHead = 7 // chain a fake pool node, as addWaiter does
				pending[kk] = true
			}
			check(ci, step)
			if k.size() != len(known)+len(pending) {
				t.Fatalf("live %d != oracle %d + pending %d",
					k.size(), len(known), len(pending))
			}
			if k.slots < int32(len(universe)*initRingSlots) {
				t.Fatalf("slots %d below the initRingSlots floor", k.slots)
			}
			if k.slotsPeak < k.slots {
				t.Fatalf("slotsPeak %d < slots %d", k.slotsPeak, k.slots)
			}
		}
		// Final sweep: every key the oracle holds must be readable densely,
		// with the same count owed.
		for ci := range universe {
			for step := int32(1); step <= 1+255+0x0f<<8; step++ {
				check(int32(ci), step)
			}
		}
	})
}

// countedKnow is a one-column store whose column has k local consumers.
func countedKnow(k int32) denseKnow {
	return newKnow([]int32{7}, []int32{k})
}

// A value read by k local consumers survives k-1 consumes and retires on
// the k-th, exactly when the last consumer computes past it.
func TestDenseConsumeRetiresOnLast(t *testing.T) {
	for _, n := range []int32{1, 2, 5} {
		k := countedKnow(n)
		k.put(0, 3, 33)
		for i := int32(1); i < n; i++ {
			k.consume(0, 3)
			if v, ok := k.get(0, 3); !ok || v != 33 {
				t.Fatalf("cons %d: value gone after %d consumes", n, i)
			}
		}
		k.consume(0, 3)
		if k.has(0, 3) || k.size() != 0 {
			t.Fatalf("cons %d: value survived its last consume (size %d)", n, k.size())
		}
		k.consume(0, 3) // an extra consume of a retired value is a no-op
		if k.size() != 0 {
			t.Fatalf("cons %d: consume of a retired value changed size %d", n, k.size())
		}
	}
}

// A put on an already-known slot must keep the count it has: consumers
// that computed past the value stay counted.
func TestDensePutKnownKeepsCount(t *testing.T) {
	k := countedKnow(3)
	k.put(0, 4, 44)
	k.consume(0, 4)
	if head := k.put(0, 4, 44); head != -1 {
		t.Fatalf("re-put returned chain %d, want -1", head)
	}
	k.consume(0, 4)
	if !k.has(0, 4) {
		t.Fatal("re-put reset nothing but the value retired a consume early")
	}
	k.consume(0, 4)
	if k.has(0, 4) {
		t.Fatal("re-put reset the count: value outlived its third consume")
	}
}

// A pending slot hands its whole waiter chain to the put that resolves it,
// then counts down from the full consumer count like any other value.
func TestDensePendingChainDrainsThenCounts(t *testing.T) {
	k := countedKnow(2)
	s := k.waiterSlot(0, 6)
	s.waitHead = 9 // chain a fake pool node, as addWaiter does
	k.consume(0, 6)
	if k.size() != 1 || k.has(0, 6) {
		t.Fatal("consume touched a pending anchor")
	}
	if head := k.put(0, 6, 66); head != 9 {
		t.Fatalf("put returned chain %d, want 9", head)
	}
	if got := k.rings[0].at(6).waitHead; got != -2 {
		t.Fatalf("resolved slot count %d, want -2", got)
	}
	k.consume(0, 6)
	k.consume(0, 6)
	if k.size() != 0 {
		t.Fatalf("size %d after both consumers, want 0", k.size())
	}
}

// Shrink fires at the same live*4 == len crossing whatever the consumer
// count: with two consumers per value, only the second consume of the
// retirement that takes live from 9 to 8 may shrink a 32-slot ring (to 8
// slots), and only the one that takes live from 3 to 2 shrinks it home.
func TestDenseShrinkCrossingWithCounts(t *testing.T) {
	k := countedKnow(2)
	for s := int32(1); s <= 32; s++ {
		k.put(0, s, uint64(s))
	}
	want := int64(0)
	for s := int32(1); s <= 30; s++ {
		k.consume(0, s)
		if k.shrinks != want {
			t.Fatalf("shrank on the first consume of step %d", s)
		}
		k.consume(0, s)
		if s == 24 || s == 30 {
			want++
		}
		if k.shrinks != want {
			t.Fatalf("after retiring step %d (live %d): shrinks %d, want %d", s, k.live, k.shrinks, want)
		}
	}
	if k.slots != initRingSlots || k.live != 2 {
		t.Fatalf("slots %d live %d, want %d and 2", k.slots, k.live, initRingSlots)
	}
}

// A column with no local consumer could never retire, and its zero count
// would read as a pending chain: the store refuses it.
func TestDenseRejectsUnconsumedColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newDenseKnow accepted a column with zero consumers")
		}
	}()
	newKnow([]int32{3, 4}, []int32{1, 0})
}

// The per-pebble hot state: a 56-byte replica record with its database
// inline, and initial knowledge rings of exactly one 64-byte cache line.
func TestHotRecordSizes(t *testing.T) {
	if sz := unsafe.Sizeof(ownedCol{}); sz != 56 {
		t.Fatalf("ownedCol is %d bytes, want 56", sz)
	}
	if sz := unsafe.Sizeof(kring{}); sz != 32 {
		t.Fatalf("kring is %d bytes, want 32", sz)
	}
	if sz := unsafe.Sizeof(kslot{}); sz != 16 {
		t.Fatalf("kslot is %d bytes, want 16", sz)
	}
	if sz := initRingSlots * unsafe.Sizeof(kslot{}); sz != 64 {
		t.Fatalf("an initial ring is %d bytes, want 64", sz)
	}
}
