package sim

import "sync/atomic"

// spsc is a single-producer single-consumer ring buffer. The driver's
// boundary path uses one per direction between adjacent chunks, so
// hot-path sends and receives are two atomic loads and one atomic store —
// never a channel operation, never a select, never an allocation.
//
// head is owned by the consumer (next slot to read), tail by the producer
// (next slot to write). Both only ever grow; the slot index is the value
// masked by len(buf)-1. The atomic tail store publishes the slot write
// (release) and the atomic head store publishes the slot read, so slices
// passed through the ring hand off cleanly between goroutines — which is
// what lets the boundary path recycle batch slices without a sync.Pool.
type spsc[T any] struct {
	buf  []T
	mask uint64
	// padded onto separate cache lines so the producer's tail writes do not
	// false-share with the consumer's head writes.
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
	_    [56]byte
}

// newSPSC returns a ring with the given power-of-two capacity.
func newSPSC[T any](capacity int) *spsc[T] {
	if capacity&(capacity-1) != 0 || capacity == 0 {
		panic("sim: spsc capacity must be a power of two")
	}
	return &spsc[T]{buf: make([]T, capacity), mask: uint64(capacity - 1)}
}

// push appends v; it reports false when the ring is full (producer only).
func (r *spsc[T]) push(v T) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest element; ok is false when the ring is empty
// (consumer only). The slot is zeroed so the ring never pins a retired
// batch slice against the GC.
func (r *spsc[T]) pop() (v T, ok bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return v, false
	}
	var zero T
	v = r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	return v, true
}

// empty reports whether the ring has nothing pending (consumer view).
func (r *spsc[T]) empty() bool { return r.head.Load() == r.tail.Load() }

// len reports how many elements are pending. Racy across threads (the two
// loads are not a snapshot) but exact from either owner's side — good enough
// for occupancy telemetry.
func (r *spsc[T]) len() int { return int(r.tail.Load() - r.head.Load()) }
