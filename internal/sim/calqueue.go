package sim

import "slices"

// This file holds the engine's two event queues, both allocation-free on the
// hot path:
//
//   - bucketCal: a bucketed calendar queue for link-delivery events. Host
//     time is integer and `now` never decreases, and almost every event is
//     scheduled at now+delay for a small delay, so a ring of per-step
//     buckets indexed by step mod ring-size serves the common case in O(1)
//     with zero boxing; rare far-future arrivals (delay >= the ring span)
//     spill into a typed overflow min-heap and pop from there when due.
//   - readyQueue: a typed binary min-heap over packed uint64 (step<<32|idx)
//     keys for computable pebbles, replacing container/heap's boxed
//     Push/Pop.
//
// Invariants (see DESIGN.md "Bucketed calendar"):
//
//   - `now` is monotone non-decreasing and never jumps past a scheduled
//     event (nextEvent returns the earliest pending step).
//   - Every ring entry has step in [now, now+calRingSize), so each bucket
//     holds entries of exactly one step and bucket step&calRingMask is
//     unambiguous.
//   - schedule() is never called with step < now (arrivals are stamped
//     now+delay with delay >= 1; boundary batches arrive at or above the
//     receiver's clock by the lookahead argument in parallel.go).
//   - takeDue() merges the current ring bucket with due overflow entries
//     and sorts ascending, reproducing the old heap's (step, key) pop order
//     exactly — including adjacent duplicates — which keeps the event
//     stream bit-identical across engines.

const (
	calRingBits = 9 // 512 buckets; delays beyond the span overflow
	calRingSize = 1 << calRingBits
	calRingMask = calRingSize - 1
)

// calEntry orders same-step deliveries deterministically: by step, then by
// (position, from-left-before-from-right).
type calEntry struct {
	step int64
	key  int32 // position*2 (+1 for delivery from the right)
}

// calOverflow is a typed min-heap of calEntry ordered by (step, key), used
// for arrivals beyond the ring span.
type calOverflow []calEntry

func calLess(a, b calEntry) bool {
	if a.step != b.step {
		return a.step < b.step
	}
	return a.key < b.key
}

func (h *calOverflow) push(e calEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !calLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *calOverflow) pop() calEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && calLess(s[l], s[least]) {
			least = l
		}
		if r < n && calLess(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// bucketCal is the calendar queue: ring of per-step key buckets plus the
// overflow heap. Buckets are reused ([:0]) so steady-state scheduling does
// not allocate.
type bucketCal struct {
	ring     [calRingSize][]int32
	inRing   int // total entries across ring buckets
	overflow calOverflow
	due      []int32 // scratch for takeDue
}

// reset empties the calendar for a new run, keeping the buckets', the
// heap's and the scratch's memory.
func (c *bucketCal) reset() {
	for i := range c.ring {
		c.ring[i] = c.ring[i][:0]
	}
	c.inRing, c.overflow, c.due = 0, c.overflow[:0], c.due[:0]
}

// schedule records a delivery key at the given step. step must be >= now.
func (c *bucketCal) schedule(now, step int64, key int32) {
	if step < now {
		panic("sim: calendar event scheduled in the past")
	}
	if step-now < calRingSize {
		i := int(step & calRingMask)
		c.ring[i] = append(c.ring[i], key)
		c.inRing++
	} else {
		c.overflow.push(calEntry{step: step, key: key})
	}
}

// empty reports whether no events are pending.
func (c *bucketCal) empty() bool { return c.inRing == 0 && len(c.overflow) == 0 }

// next returns the earliest pending event step at or after now.
func (c *bucketCal) next(now int64) (int64, bool) {
	best, ok := int64(0), false
	if c.inRing > 0 {
		for s := now; s < now+calRingSize; s++ {
			if len(c.ring[s&calRingMask]) > 0 {
				best, ok = s, true
				break
			}
		}
	}
	if len(c.overflow) > 0 && (!ok || c.overflow[0].step < best) {
		best, ok = c.overflow[0].step, true
	}
	return best, ok
}

// takeDue removes and returns every key scheduled for step `now`, sorted
// ascending (the canonical same-step delivery order). The returned slice is
// scratch owned by the calendar and valid until the next takeDue call; no
// schedule() for step `now` may happen while it is being iterated (the
// engine only schedules strictly later steps from within a step).
func (c *bucketCal) takeDue(now int64) []int32 {
	due := c.due[:0]
	i := int(now & calRingMask)
	if b := c.ring[i]; len(b) > 0 {
		due = append(due, b...)
		c.ring[i] = b[:0]
		c.inRing -= len(b)
	}
	for len(c.overflow) > 0 && c.overflow[0].step == now {
		due = append(due, c.overflow.pop().key)
	}
	if len(due) > 1 {
		slices.Sort(due)
	}
	c.due = due
	return due
}

// readyQueue orders computable pebbles by packed (step, owned-column index)
// keys; a typed min-heap with no interface boxing.
type readyQueue []uint64

func readyKey(step int32, idx int32) uint64 { return uint64(uint32(step))<<32 | uint64(uint32(idx)) }

func (h *readyQueue) push(k uint64) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[i] >= s[parent] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *readyQueue) pop() uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l] < s[least] {
			least = l
		}
		if r < n && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}
