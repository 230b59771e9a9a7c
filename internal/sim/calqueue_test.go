package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refCal is the engine's previous calendar: a boxed container/heap over
// (step, key) entries. The bucketed calendar must reproduce its pop order
// exactly — same steps, same ascending keys within a step, duplicates
// included — which is what keeps the obs event stream bit-identical across
// the queue swap. It lives on here as the test oracle.
type refCal []calEntry

func (c refCal) Len() int { return len(c) }
func (c refCal) Less(i, j int) bool {
	if c[i].step != c[j].step {
		return c[i].step < c[j].step
	}
	return c[i].key < c[j].key
}
func (c refCal) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *refCal) Push(x any)   { *c = append(*c, x.(calEntry)) }
func (c *refCal) Pop() any {
	old := *c
	n := len(old)
	v := old[n-1]
	*c = old[:n-1]
	return v
}

// drainRef pops every reference entry at exactly `now`.
func drainRef(ref *refCal, now int64) []int32 {
	var out []int32
	for ref.Len() > 0 && (*ref)[0].step == now {
		out = append(out, heap.Pop(ref).(calEntry).key)
	}
	return out
}

// runCalScript interprets op bytes against both calendars and fails on any
// divergence in due-set order or next-event step. Delays span both the ring
// (< calRingSize) and the overflow heap.
func runCalScript(t *testing.T, data []byte) {
	t.Helper()
	var bc bucketCal
	ref := &refCal{}
	now := int64(1)
	for i := 0; i+2 < len(data); i += 3 {
		switch data[i] % 4 {
		case 0, 1: // schedule now+delay (delay 0..4095: ring and overflow)
			delay := (int64(data[i+1]) | int64(data[i+2]&0x0f)<<8)
			key := int32(data[i+2])
			bc.schedule(now, now+delay, key)
			heap.Push(ref, calEntry{step: now + delay, key: key})
		case 2: // drain the current step
			due := append([]int32(nil), bc.takeDue(now)...)
			want := drainRef(ref, now)
			if !slices.Equal(due, want) {
				t.Fatalf("at step %d: due %v, reference heap %v", now, due, want)
			}
		case 3: // advance to the next event
			next, ok := bc.next(now)
			var refNext int64
			refOk := ref.Len() > 0
			if refOk {
				refNext = (*ref)[0].step
			}
			if ok != refOk || (ok && next != refNext) {
				t.Fatalf("at step %d: next=(%d,%v), reference (%d,%v)", now, next, ok, refNext, refOk)
			}
			if ok {
				now = next
			} else {
				now++
			}
		}
	}
	// Final drain: walk every remaining event in both queues.
	for {
		next, ok := bc.next(now)
		refOk := ref.Len() > 0
		if ok != refOk {
			t.Fatalf("final drain at %d: bucketed %v, reference %v", now, ok, refOk)
		}
		if !ok {
			return
		}
		if refNext := (*ref)[0].step; next != refNext {
			t.Fatalf("final drain: next %d, reference %d", next, refNext)
		}
		now = next
		due := append([]int32(nil), bc.takeDue(now)...)
		want := drainRef(ref, now)
		if !slices.Equal(due, want) {
			t.Fatalf("final drain at %d: due %v, reference %v", now, due, want)
		}
	}
}

// FuzzBucketCalAgainstHeap drives random schedule/drain/advance scripts
// through the bucketed calendar and the old heap side by side.
func FuzzBucketCalAgainstHeap(f *testing.F) {
	// Seeds: ring-only traffic, overflow-heavy traffic (high delay nibble),
	// duplicate keys at one step, and a drain/advance churn mix.
	f.Add([]byte{0, 10, 3, 0, 10, 3, 2, 0, 0, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 255, 0xff, 1, 200, 0xef, 3, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 7, 0, 1, 7, 0, 1, 7, 3, 0, 0, 2, 0, 0})
	seed := make([]byte, 300)
	r := rand.New(rand.NewSource(42))
	r.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		runCalScript(t, data)
	})
}

// TestBucketCalRandomScripts runs the fuzz body over many seeds in a plain
// test, so the oracle comparison is exercised by `go test` alone.
func TestBucketCalRandomScripts(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 60+r.Intn(600))
		r.Read(data)
		runCalScript(t, data)
	}
}

// TestBucketCalOverflowMigration pins the overflow path: events beyond the
// ring span must surface, in order, once the clock reaches them.
func TestBucketCalOverflowMigration(t *testing.T) {
	var bc bucketCal
	now := int64(1)
	far := now + calRingSize*3 + 17
	bc.schedule(now, far, 9)
	bc.schedule(now, far, 4)
	bc.schedule(now, now+2, 1)
	if next, ok := bc.next(now); !ok || next != now+2 {
		t.Fatalf("next = %d,%v want %d", next, ok, now+2)
	}
	now += 2
	if due := bc.takeDue(now); !slices.Equal(due, []int32{1}) {
		t.Fatalf("due %v want [1]", due)
	}
	if next, ok := bc.next(now); !ok || next != far {
		t.Fatalf("next after ring drain = %d,%v want %d", next, ok, far)
	}
	now = far
	if due := bc.takeDue(now); !slices.Equal(due, []int32{4, 9}) {
		t.Fatalf("overflow due %v want [4 9]", due)
	}
	if !bc.empty() {
		t.Fatal("calendar not empty after draining everything")
	}
}

// runReadyScript interprets op bytes against a readySet and a sorted oracle
// of packed (step<<32 | idx) keys, failing on any divergence in pop order.
// The first byte sizes the workstation (1..256 owned columns). Each later
// byte triple either pops or pushes a column that is not queued, the
// engine's contract of one entry per owned column, at a step up to 128
// below or 127 above the lowest queued step. Pushes below the minimum are
// what recordValue and standby activation (always step 1) do; spans beyond
// the ring's buckets force it to grow. It returns the ring's final bucket
// count.
func runReadyScript(t *testing.T, data []byte) int32 {
	t.Helper()
	if len(data) == 0 {
		return 0
	}
	n := int(data[0]) + 1
	w := readyWords(n)
	r := readySet{bits: make([]uint64, readyBuckets*w), words: int32(w), mask: readyBuckets - 1}
	var want []uint64
	queued := make([]bool, n)
	base := int32(1) // the lowest queued step, or the last one popped
	pop := func() {
		step, idx := r.pop()
		if got := uint64(step)<<32 | uint64(idx); got != want[0] {
			t.Fatalf("pop (%d, %d), oracle (%d, %d)", step, idx, want[0]>>32, uint32(want[0]))
		}
		want, queued[idx], base = want[1:], false, step
	}
	for i := 1; i+2 < len(data); i += 3 {
		if data[i]%4 == 0 && len(want) > 0 {
			pop()
			continue
		}
		idx := int(data[i+1]) % n
		for queued[idx] {
			idx = (idx + 1) % n
			if idx == int(data[i+1])%n {
				break // every column is queued
			}
		}
		if queued[idx] {
			pop()
			continue
		}
		if len(want) > 0 {
			base = int32(want[0] >> 32)
		}
		step := max(1, base+int32(data[i+2])-128)
		r.push(step, int32(idx))
		k := uint64(step)<<32 | uint64(idx)
		j, _ := slices.BinarySearch(want, k)
		want, queued[idx] = slices.Insert(want, j, k), true
		if int(r.n) != len(want) {
			t.Fatalf("ready set holds %d entries, oracle %d", r.n, len(want))
		}
	}
	for len(want) > 0 {
		pop()
	}
	if r.n != 0 || slices.ContainsFunc(r.bits, func(x uint64) bool { return x != 0 }) {
		t.Fatalf("ready set not empty after the drain: n=%d", r.n)
	}
	return r.mask + 1
}

// TestReadySetOrdering checks the ready set against the sorted oracle over
// random scripts, from a single word to several words per bucket, and that
// the scripts' wide spans did grow the ring.
func TestReadySetOrdering(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 256} {
		r := rand.New(rand.NewSource(int64(n)))
		data := make([]byte, 1+3*5000)
		r.Read(data)
		data[0] = byte(n - 1)
		if buckets := runReadyScript(t, data); n > 1 && buckets <= readyBuckets {
			t.Fatalf("%d columns: the ring never grew", n)
		}
	}
	// A step-1 push below a higher minimum, then a span of 9 steps that a
	// ring of readyBuckets (8) must grow (to 16) to hold.
	r := readySet{bits: make([]uint64, readyBuckets), words: 1, mask: readyBuckets - 1}
	r.push(5, 2)
	r.push(1, 7)
	r.push(9, 0)
	r.push(5, 1)
	if r.mask != 15 {
		t.Fatalf("ring mask %d after a 9-step span, want 15", r.mask)
	}
	var got [][2]int32
	for r.n > 0 {
		step, idx := r.pop()
		got = append(got, [2]int32{step, idx})
	}
	if want := [][2]int32{{1, 7}, {5, 1}, {5, 2}, {9, 0}}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestReadySetRejectsSecondPush checks the one-entry-per-column guard at
// the same step and at another live step.
func TestReadySetRejectsSecondPush(t *testing.T) {
	for _, second := range []int32{4, 6} {
		r := readySet{bits: make([]uint64, readyBuckets), words: 1, mask: readyBuckets - 1}
		r.push(4, 3)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second push of column 3 at step %d did not panic", second)
				}
			}()
			r.push(second, 3)
		}()
	}
}

// FuzzReadySet drives random push/pop scripts through the ready set and
// the sorted oracle side by side.
func FuzzReadySet(f *testing.F) {
	// Seeds: one column, a one-word set with pushes far below and above the
	// minimum, and a random multi-word script.
	f.Add([]byte{0, 1, 0, 128, 0, 0, 200, 0, 0, 0})
	f.Add([]byte{63, 1, 5, 255, 1, 6, 0, 1, 7, 128, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 301)
	rand.New(rand.NewSource(42)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		runReadyScript(t, data)
	})
}
