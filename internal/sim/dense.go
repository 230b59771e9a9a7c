package sim

import (
	"fmt"
	"slices"
)

// Dense generation-indexed knowledge storage.
//
// The knowledge tables keyed by (column, step) used to be open-addressing
// hash maps, and profiling showed the engine spending roughly half
// its cycles hashing and probing them. But the key space is structured: a
// workstation only ever keys the columns it holds plus their guest
// neighbors (a small static universe fixed by the assignment), and for each
// column the live steps form a short window — a value dies as soon as every
// local consumer has computed past it. So instead of hashing, each column
// gets a flat ring over its live step window, indexed directly by
// step mod len(ring) with the step itself stored as a generation tag:
//
//   - lookup/insert/delete are a single indexed load or store plus a tag
//     compare — no hash, no probe chain, no tombstones;
//   - deletion just clears the tag; generation tags make stale slots
//     self-invalidating, so churn can never degrade later lookups the way
//     tombstones or displaced entries degrade a hash table;
//   - when two live steps of one column collide mod the ring size (the
//     retirement window outgrew the ring), the ring doubles until it covers
//     the live span — capacity >= span guarantees distinct live steps map
//     to distinct slots, so growth is always conflict-free.
//
// The pooled waiter lists that used to hang off a second hash map rehome
// onto the same slots: a slot whose value has not arrived yet carries the
// head of the waiter chain instead, so addWaiter and recordValue never hash
// either. A known value's slot carries its retirement count in the same
// field: every ring knows how many local consumers read its column (cons),
// a value lands with -cons, each consumer's compute past it counts it up,
// and the last one retires it — no consumer scans on the hot path.
//
// Slot states, for a slot whose tag matches the queried step:
//
//	waitHead <  0: the value is known and stored in val; -waitHead local
//	               consumers have yet to compute past it
//	waitHead >= 0: the value is still missing; waitHead chains the pooled
//	               waiter nodes that want it (see proc.waitPool)
//
// A zero tag means the slot is empty (guest steps are >= 1).
type kslot struct {
	step     int32 // generation tag: the guest step stored here; 0 = empty
	waitHead int32 // waiter chain head when pending; -(consumers left) when known
	val      uint64
}

// kring is one column's flat ring over its live step window.
type kring struct {
	slots []kslot
	live  int32 // claimed slots (known values + pending waiter anchors)
	cons  int32 // local consumers of the column: owned replicas reading it
}

func (r *kring) at(step int32) *kslot {
	return &r.slots[uint32(step)&uint32(len(r.slots)-1)]
}

// denseKnow is one workstation's knowledge store: one ring per column in
// its universe. All counters are plain fields maintained inline (an
// increment on state the operation already touches), so collect reads the
// Result.Work peaks in O(1) per store.
type denseKnow struct {
	universe []int32 // sorted distinct guest columns this store can key
	rings    []kring // parallel to universe

	live      int32 // claimed slots across all rings
	livePeak  int32 // high-water of live
	slots     int32 // allocated ring slots across all rings, right now
	slotsPeak int32 // high-water of slots: peak ring bytes = slotsPeak * 16
	retireLag int32 // peak per-ring occupancy seen at claim time: how far
	// retirement trails the frontier, in unretired steps
	grows   int64 // ring growth events
	shrinks int64 // ring shrink events
}

// initRingSlots is the initial per-column ring capacity. Most columns never
// hold more than a few live steps at once (retirement runs one step behind
// the frontier), so start small and let skewed columns grow on demand. Four
// 16-byte slots make an initial ring one cache line.
const initRingSlots = 4

// appendUniverse appends to dst the sorted distinct guest columns that can
// ever be keyed at a position holding the columns in `held` (base and
// standby lists): those columns plus their guest neighbors. Routes only
// deliver a column's values to holders of its neighbors, and local computes
// only record held columns, so this universe is exact and static for the
// run.
func appendUniverse(dst []int32, neighbors func(int) []int, held ...[]int) []int32 {
	start := len(dst)
	for _, cols := range held {
		for _, c := range cols {
			dst = append(dst, int32(c))
			for _, nb := range neighbors(c) {
				dst = append(dst, int32(nb))
			}
		}
	}
	u := dst[start:]
	slices.Sort(u)
	return dst[:start+len(slices.Compact(u))]
}

// denseIndex returns col's index in the sorted universe, or -1.
func denseIndex(universe []int32, col int32) int32 {
	lo, hi := 0, len(universe)
	for lo < hi {
		mid := (lo + hi) / 2
		if universe[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(universe) && universe[lo] == col {
		return int32(lo)
	}
	return -1
}

// newDenseKnow builds the store for universe over rings, one per column,
// whose cons fields the caller has counted, and backing, zeroed memory of
// initRingSlots slots per column that the initial rings share. Every column
// needs at least one consumer: with none its values could never retire, and
// a zero count would read as a pending chain.
func newDenseKnow(universe []int32, rings []kring, backing []kslot) denseKnow {
	k := denseKnow{universe: universe, rings: rings}
	for i := range k.rings {
		if rings[i].cons < 1 {
			panic(fmt.Sprintf("sim: knowledge column %d has no local consumer", universe[i]))
		}
		// Capped views: a ring that grows reallocates on its own and never
		// writes into its neighbor's slots.
		lo := i * initRingSlots
		k.rings[i].slots = backing[lo : lo+initRingSlots : lo+initRingSlots]
	}
	k.slots = int32(len(universe) * initRingSlots)
	k.slotsPeak = k.slots
	return k
}

// denseOf resolves a guest column to its dense ring index (-1 when the
// column is outside this store's universe). The engine hot paths never call
// it — compute paths carry precomputed indexes on ownedCol and deliveries
// carry them on the route — it exists for tests and diagnostics.
func (k *denseKnow) denseOf(col int32) int32 { return denseIndex(k.universe, col) }

// get returns the value stored for (dense, step) and whether it is known. A
// tag mismatch means the step is genuinely absent: a live step is only ever
// stored at its own residue, so no other slot could hold it.
func (k *denseKnow) get(dense, step int32) (uint64, bool) {
	s := k.rings[dense].at(step)
	if s.step == step && s.waitHead < 0 {
		return s.val, true
	}
	return 0, false
}

// has reports whether the value for (dense, step) is known.
func (k *denseKnow) has(dense, step int32) bool {
	s := k.rings[dense].at(step)
	return s.step == step && s.waitHead < 0
}

// ensure returns the slot for (ring, step), growing the ring first when the
// slot is claimed by a different live step.
func (k *denseKnow) ensure(r *kring, step int32) *kslot {
	s := r.at(step)
	if s.step == step || s.step == 0 {
		return s
	}
	k.grow(r, step)
	return r.at(step)
}

// claim marks an empty slot live for step and updates the occupancy
// accounting shared by put and waiterSlot.
func (k *denseKnow) claim(r *kring, s *kslot, step int32) {
	if r.live > k.retireLag {
		// Everything already live in this ring is an older step not yet
		// retired — the occupancy at claim time is the retirement lag.
		k.retireLag = r.live
	}
	s.step = step
	r.live++
	k.live++
	if k.live > k.livePeak {
		k.livePeak = k.live
	}
}

// put stores the value for (dense, step) and returns the head of any waiter
// chain that was pending on it (-1 when none). The caller owns draining the
// chain; the slot itself transitions to the known state with the ring's full
// consumer count. A put on an already-known slot keeps the count it has, so
// consumers that already computed past the value stay counted.
func (k *denseKnow) put(dense, step int32, val uint64) int32 {
	r := &k.rings[dense]
	s := k.ensure(r, step)
	s.val = val
	head := int32(-1)
	switch {
	case s.step == 0:
		k.claim(r, s, step)
	case s.waitHead < 0:
		return -1
	default:
		head = s.waitHead
	}
	s.waitHead = -r.cons
	return head
}

// waiterSlot returns the slot for (dense, step) with the value still
// pending, claiming it when empty, so the caller can push a waiter node
// onto its chain. The pointer is valid until the store's next mutation.
func (k *denseKnow) waiterSlot(dense, step int32) *kslot {
	r := &k.rings[dense]
	s := k.ensure(r, step)
	if s.step == 0 {
		k.claim(r, s, step)
		s.waitHead = -1
		s.val = 0
	}
	return s
}

// consume records that one local consumer has computed past (dense, step)
// and retires the value when it was the last. Clearing the generation tag is
// the entire deletion — no backward shift, no tombstone — which is why heavy
// churn cannot degrade this store. Pending-waiter slots are never consumed:
// a consumer only computes past values it has, so the check is defensive.
//
// When occupancy falls to a quarter of a grown ring (or the ring drains
// entirely), the ring shrinks back toward initRingSlots, so a growth spike
// — a standby host's pinned history released by activation, a churn burst —
// costs peak bytes only while it is live. live decrements one at a time, so
// the equality check crosses exactly once per descent instead of rescanning
// the ring on every retirement.
func (k *denseKnow) consume(dense, step int32) {
	r := &k.rings[dense]
	s := r.at(step)
	if s.step != step || s.waitHead >= 0 {
		return
	}
	if s.waitHead++; s.waitHead < 0 {
		return
	}
	s.step = 0
	s.val = 0
	r.live--
	k.live--
	if len(r.slots) > initRingSlots && (r.live*4 == int32(len(r.slots)) || r.live == 0) {
		k.shrink(r)
	}
}

// size reports the claimed slots across all rings (known values plus
// pending waiter anchors).
func (k *denseKnow) size() int { return int(k.live) }

// grow widens r until its capacity covers the whole live step span
// including step, then rehomes every live slot. Capacity >= span keeps
// distinct live steps at distinct residues, so rehoming never conflicts.
func (k *denseKnow) grow(r *kring, step int32) {
	k.grows++
	lo, hi := step, step
	for i := range r.slots {
		if s := r.slots[i].step; s != 0 {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	span := int(hi-lo) + 1
	newCap := 2 * len(r.slots)
	for newCap < span {
		newCap *= 2
	}
	old := r.slots
	r.slots = make([]kslot, newCap)
	for i := range old {
		if old[i].step != 0 {
			*r.at(old[i].step) = old[i]
		}
	}
	k.slots += int32(newCap - len(old))
	if k.slots > k.slotsPeak {
		k.slotsPeak = k.slots
	}
}

// shrink narrows r to the smallest power of two that still covers the live
// step span (but never below initRingSlots), rehoming the surviving slots.
// Capacity >= span keeps distinct live steps at distinct residues — the same
// invariant grow maintains — so rehoming never conflicts. Pending waiter
// anchors move with their slots: the chain head lives in the slot itself, so
// the copy carries the whole chain.
func (k *denseKnow) shrink(r *kring) {
	var lo, hi int32
	for i := range r.slots {
		if s := r.slots[i].step; s != 0 {
			if lo == 0 || s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	span := 0
	if lo != 0 {
		span = int(hi-lo) + 1
	}
	newCap := initRingSlots
	for newCap < span {
		newCap *= 2
	}
	if newCap >= len(r.slots) {
		return // sparse survivors still span the current capacity
	}
	k.shrinks++
	old := r.slots
	r.slots = make([]kslot, newCap)
	for i := range old {
		if old[i].step != 0 {
			*r.at(old[i].step) = old[i]
		}
	}
	k.slots -= int32(len(old) - newCap)
}
