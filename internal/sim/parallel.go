package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The parallel engine (v2) is a conservative parallel discrete-event
// simulator: the host line is split into contiguous chunks, one goroutine
// each, with lookahead equal to the boundary link delay. A chunk whose
// clock is at step s cannot send anything that arrives before s + d_boundary,
// so its neighbor may safely simulate up to that horizon.
//
// v2 replaces v1's per-slice channel protocol with three mechanisms:
//
//   - Work-balanced cuts: splitPositionsWork places cut i at the i-th work
//     quantile of the per-host pebble counts (not the i-th host quantile),
//     then nudges it onto the highest-delay link nearby — balanced chunks
//     eliminate stragglers, high-delay boundaries maximise lookahead.
//
//   - Published clocks + windowed batch coalescing: each worker owns one
//     atomic "promised clock" per boundary — the guarantee "nothing from me
//     will arrive before pub + d". Neighbors read it directly when computing
//     their horizon, so null messages cost one atomic load instead of a
//     channel round trip. Boundary messages accumulate in a per-direction
//     outbox and ship as one batch per window (window = max(1, d/2) steps of
//     clock advance), over a single-producer/single-consumer ring — the hot
//     path has no channel operation, no select and no allocation (batch
//     slices recycle through a reverse free ring).
//
//   - Demand-driven wakeups: a worker blocked at its horizon force-flushes
//     both outboxes, publishes its clock and parks on a 1-slot notify
//     channel guarded by an idle flag (store-idle, recheck, sleep on one
//     side; publish, load-idle, signal on the other — the classic Dekker
//     handshake, so wakeups are never lost under seq-cst atomics).
//
//   - A quiet gate for stall detection: a worker with nothing left to
//     simulate waits in a shared gate instead of parking alone, and the
//     arrival that fills the gate checks whether the whole run is stuck
//     (see quietGate). The verdict depends only on simulation state, never
//     on wall-clock time.
//
// Bit-identity with the sequential engine is preserved because coalescing
// only delays *transport*, never reorders *simulation*: a batch held after a
// flush at clock s0 contains messages injected at steps >= s0, which arrive
// at or after s0 + d; the neighbor that read pub = s0 simulates strictly
// below s0 + d, so no held message can be needed before the next flush
// publishes it. Within a chunk, same-step delivery order is fixed by the
// calendar's (position, from-left-first) key exactly as in the sequential
// engine, and receiveBoundary stamps arrivals with the same steps a local
// link would have produced. See DESIGN.md §5 for the full argument.

const (
	farFuture = math.MaxInt64 / 4

	// boundaryRingCap bounds batches in flight per boundary direction; a
	// full ring back-pressures the producer into draining its own inboxes.
	boundaryRingCap = 256
	// freeRingCap bounds recycled batch slices held per direction.
	freeRingCap = 8
	// boundaryBatchCap force-flushes an outbox regardless of the window,
	// bounding coalescing memory on very high-bandwidth boundaries.
	boundaryBatchCap = 4096
)

// side is one worker's view of one boundary direction: the rings to and
// from that neighbor, the clock promised to it, and the flush state.
type side struct {
	delay    int64
	window   int64 // clock advance between coalesced flushes
	fromLeft bool  // batches popped from `in` arrive from our left

	outbox *[]timedMsg       // chunk outbox feeding this boundary
	in     *spsc[[]timedMsg] // neighbor -> us: message batches
	out    *spsc[[]timedMsg] // us -> neighbor: message batches
	free   *spsc[[]timedMsg] // our shipped slices, recycled back to us
	retire *spsc[[]timedMsg] // consumed inbound slices, returned to neighbor

	pub       atomic.Int64  // clock we promise this neighbor (it reads this)
	peerClock *atomic.Int64 // the neighbor's promise to us (its side.pub)
	peer      *worker

	sentClock int64 // clock at the last batch flush
}

type worker struct {
	c           *chunk
	left, right *side // nil at the line ends

	idle   atomic.Bool
	notify chan struct{} // 1-slot wakeup, paired with idle (Dekker handshake)

	global   *int64 // remaining pebbles across all chunks
	done     chan struct{}
	doneOnce *sync.Once
	errMu    *sync.Mutex
	err      *error

	// Adaptive replication (nil ast disables): workers cap their horizons
	// at nextB+1 and synchronise at gate so the controller sees every chunk
	// at exactly the epoch boundary. See adapt.go.
	ast   *adaptState
	gate  *epochGate
	nextB int64

	// quiet is the stall-detection gate of non-adaptive runs (nil when
	// adaptive: the epoch gate and the step cap bound those).
	quiet *quietGate
}

func (w *worker) setErr(e error) {
	w.errMu.Lock()
	if *w.err == nil {
		*w.err = e
	}
	w.errMu.Unlock()
	w.doneOnce.Do(func() { close(w.done) })
}

func (w *worker) isDone() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// wake signals this worker if it has parked (or is about to park) at its
// horizon. Callers store their published state before calling, so the
// idle-flag load orders after that store and the handshake cannot lose a
// wakeup: either we observe idle and signal, or the worker's post-idle
// recheck observes our store.
func (w *worker) wake() {
	if w.idle.Load() {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// horizon is the largest step the chunk may safely simulate, exclusive:
// min over boundaries of the neighbor's promised clock plus the lookahead.
func (w *worker) horizon() int64 {
	h := int64(farFuture)
	for _, s := range [2]*side{w.left, w.right} {
		if s != nil {
			h = min(h, s.peerClock.Load()+s.delay)
		}
	}
	return h
}

// drainSide consumes every pending inbound batch without blocking and
// returns the emptied slices to the neighbor's free ring for reuse.
func (w *worker) drainSide(s *side) {
	if s == nil {
		return
	}
	for {
		batch, ok := s.in.pop()
		if !ok {
			return
		}
		w.c.receiveBoundary(s.fromLeft, batch)
		if cap(batch) > 0 {
			s.retire.push(batch[:0]) // best-effort; dropped when full
		}
	}
}

func (w *worker) drainAll() {
	w.drainSide(w.left)
	w.drainSide(w.right)
}

func (w *worker) pendingInput() bool {
	return (w.left != nil && !w.left.in.empty()) ||
		(w.right != nil && !w.right.in.empty())
}

// flushSide ships the accumulated outbox batch when the coalescing window
// elapsed, the batch cap is hit, or the caller forces it (before parking at
// the horizon). A full ring back-pressures: we keep draining our own inboxes
// so the neighbor — possibly spinning on its own full ring — can progress.
func (w *worker) flushSide(s *side, force bool) bool {
	if s == nil {
		return true
	}
	batch := *s.outbox
	if len(batch) == 0 {
		return true
	}
	now := w.c.now
	if !force && now-s.sentClock < s.window && len(batch) < boundaryBatchCap {
		return true
	}
	for !s.out.push(batch) {
		if w.isDone() {
			return false
		}
		if tel := w.c.tel; tel != nil {
			tel.Inc(w.c.met.ringFullStalls)
		}
		w.drainAll()
		s.peer.wake()
		runtime.Gosched()
	}
	s.sentClock = now
	if tel := w.c.tel; tel != nil {
		m := w.c.met
		tel.Inc(m.boundaryFlushes)
		tel.Add(m.boundaryMsgs, int64(len(batch)))
		tel.Observe(m.batchSize, int64(len(batch)))
		tel.SetMax(m.ringOccupancyPeak, int64(s.out.len()))
	}
	*s.outbox, _ = s.free.pop() // nil when no recycled slice is free
	s.peer.wake()
	return true
}

// ship flushes both outboxes (every held message when force is set) and
// publishes the clock each neighbor may now rely on. Returns false when the
// run ended while a full ring held a flush back.
func (w *worker) ship(force bool) bool {
	if !w.flushSide(w.left, force) || !w.flushSide(w.right, force) {
		return false
	}
	w.publish(w.left)
	w.publish(w.right)
	return true
}

// publish advances the clock promised to s's neighbor. With an empty outbox
// every future injection happens at a step >= now, so now itself is safe;
// with messages still held, only the last flushed clock is (held messages
// were injected at steps >= sentClock and arrive >= sentClock + delay).
// The store orders after any flushSide ring push, so a neighbor that reads
// the new clock is guaranteed to pop the batch it covers first.
func (w *worker) publish(s *side) {
	if s == nil {
		return
	}
	safe := w.c.now
	if len(*s.outbox) > 0 {
		safe = s.sentClock
	}
	if safe > s.pub.Load() {
		s.pub.Store(safe)
		s.peer.wake()
	}
}

// recordClockLag samples how far this chunk's clock runs ahead of each
// neighbor's published promise — the conservative-sync slack the chunk is
// carrying. Sampled per outer loop iteration and at every park, not per
// step.
func (w *worker) recordClockLag() {
	tel := w.c.tel
	if tel == nil {
		return
	}
	m := w.c.met
	for _, s := range []*side{w.left, w.right} {
		if s == nil {
			continue
		}
		if lag := w.c.now - s.peerClock.Load(); lag > 0 {
			tel.SetMax(m.pubclockLagMax, lag)
		}
	}
}

// runUntil simulates local steps strictly below h, decrementing the global
// remaining counter as pebbles complete. Returns false on error.
func (w *worker) runUntil(h, maxSteps int64) bool {
	c := w.c
	for c.now < h {
		if c.now > maxSteps {
			w.setErr(fmt.Errorf("sim: parallel chunk [%d,%d) exceeded step cap %d: %s",
				c.lo, c.hi, maxSteps, frontier(c)))
			return false
		}
		before := c.remaining
		did := c.step()
		if delta := before - c.remaining; delta > 0 {
			// Adaptive runs keep going past the last pebble to drain
			// standby-bound traffic; termination is the epoch gate's call.
			if atomic.AddInt64(w.global, -delta) == 0 && w.ast == nil {
				w.doneOnce.Do(func() { close(w.done) })
			}
		}
		if did {
			c.now++
			continue
		}
		next, ok := c.nextEvent()
		if !ok || next > h {
			next = h
		}
		if next <= c.now {
			next = c.now + 1
		}
		c.now = next
	}
	return true
}

func (w *worker) loop(maxSteps int64) {
	for {
		if w.ast == nil && atomic.LoadInt64(w.global) == 0 {
			return
		}
		if w.isDone() {
			return // quiescent termination, a stall or another error
		}
		// Sample clocks before draining: any batch covering a clock we
		// read was pushed before that clock was published, so the drain
		// below observes it and nothing within the horizon is missed.
		h := w.horizon()
		if w.ast != nil && h > w.nextB+1 {
			// Never simulate past an epoch boundary before the controller
			// has run there: the adaptive horizon cap is what makes the
			// parallel engine's activation points identical to the
			// sequential engine's.
			h = w.nextB + 1
		}
		w.drainAll()
		w.recordClockLag()
		if w.c.now < h {
			if !w.runUntil(h, maxSteps) || !w.ship(false) {
				return
			}
			continue
		}
		if w.ast != nil && w.c.now == w.nextB+1 {
			// At the epoch boundary with steps <= nextB fully simulated.
			// Ship and promise everything first so neighbors still running
			// toward the boundary can reach it, then synchronise.
			if !w.ship(true) || !w.epochBarrier() {
				return
			}
			w.nextB += int64(w.ast.policy.Epoch)
			continue
		}
		// Blocked at the horizon: everything we hold is due — ship it,
		// promise our current clock (the demand-driven null message), then
		// park until a neighbor publishes or the run ends.
		if !w.ship(true) {
			return
		}
		if w.quiet != nil {
			if _, ok := w.c.nextEvent(); !ok {
				if !w.waitQuiet() {
					return
				}
				continue
			}
		}
		w.idle.Store(true)
		if w.horizon() > w.c.now || w.pendingInput() || w.isDone() {
			w.idle.Store(false)
			if w.isDone() && atomic.LoadInt64(w.global) != 0 {
				return // a stall or another error
			}
			continue
		}
		w.recordClockLag()
		woke := w.park()
		w.idle.Store(false)
		if !woke {
			return // global hit zero, or a stall or another error surfaced
		}
	}
}

// park blocks until a neighbor's wake (true) or the end of the run (false),
// counting the park and its wall time in telemetry. The caller has raised
// the idle flag.
func (w *worker) park() bool {
	tel := w.c.tel
	var start time.Time
	if tel != nil {
		tel.Inc(w.c.met.workerParks)
		start = time.Now()
	}
	woke := true
	select {
	case <-w.notify:
	case <-w.done:
		woke = false
	}
	if tel != nil {
		if woke {
			tel.Inc(w.c.met.workerWakes)
		}
		tel.Add(w.c.met.workerBlockedNs, int64(time.Since(start)))
	}
	return woke
}

// waitQuiet holds a worker whose chunk has no next event in the quiet gate.
// It returns true, after leaving the gate, once a neighbor's batch is
// pending, and false when the run has ended. While held the worker still
// answers its neighbors' clocks: with nothing to simulate, its clock may
// jump to its horizon, exactly as runUntil would jump it. The horizon is
// read before the rings are checked, so any batch arriving before that
// horizon is already visible (its push preceded the clock it covers) and
// keeps the clock where it is.
func (w *worker) waitQuiet() bool {
	if err := w.quiet.arrive(w.global); err != nil {
		w.setErr(err)
		return false
	}
	w.idle.Store(true)
	defer w.idle.Store(false)
	for {
		h := w.horizon()
		if w.pendingInput() {
			w.quiet.leave()
			return true
		}
		if h > w.c.now {
			w.c.now = h
			w.ship(true) // the outboxes are empty: this only publishes
		}
		if !w.park() {
			return false
		}
	}
}

// quietGate detects a stalled non-adaptive run without a timer. A worker
// enters it when its chunk has no next event and leaves it, under the same
// mutex, only when a neighbor's batch is pending and before draining it, so
// a worker inside never changes its chunk's event state or any ring; it
// only moves its clock. The arrival that fills the gate scans every chunk
// and ring under the mutex: all settled with pebbles left is a stall, since
// no one is left outside to send a batch. Every stalled run ends that way,
// because a clock-only wake does not make a worker leave. DESIGN.md §5
// gives the full argument.
type quietGate struct {
	mu      sync.Mutex
	in      int
	workers []*worker
}

// arrive counts one worker into the gate. The arrival that fills it returns
// the stall error when the run is stuck.
func (g *quietGate) arrive(global *int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.in++
	if g.in < len(g.workers) || atomic.LoadInt64(global) == 0 || !settled(g.workers) {
		return nil
	}
	chunks := make([]*chunk, len(g.workers))
	for i, wk := range g.workers {
		chunks[i] = wk.c
	}
	return stallError("with every chunk quiet", chunks...)
}

// leave counts one worker out of the gate.
func (g *quietGate) leave() {
	g.mu.Lock()
	g.in--
	g.mu.Unlock()
}

// settled reports that no chunk can produce another event on its own and no
// boundary ring holds a batch. Callers hold the gate mutex every worker
// passes through before it next changes its chunk, which both orders the
// workers' writes before this read and keeps the state fixed while it runs.
func settled(workers []*worker) bool {
	for _, wk := range workers {
		if !wk.c.quiescent() {
			return false
		}
		for _, s := range []*side{wk.left, wk.right} {
			if s != nil && !s.in.empty() {
				return false
			}
		}
	}
	return true
}

// epochBarrier synchronises every worker at epoch boundary w.nextB. The
// last arriver first checks for global quiescence (no pebbles left, every
// chunk quiescent, no batch in any boundary ring) and terminates the run
// if so — the adaptive analogue of the sequential engine breaking out before
// the boundary branch. Otherwise it runs the replication controller over all
// chunks (mirroring any added pebbles into the global counter) and releases
// the rest. Waiters raise their idle flag and keep draining their boundary
// rings — under the gate mutex, so the quiescence check never races a
// drain — so a neighbor still running toward the barrier can never wedge on
// a full ring. Returns false when the run ended (quiescent termination or
// an error).
func (w *worker) epochBarrier() bool {
	last, rel := w.gate.arrive()
	if last {
		if w.gate.terminal(w.global) {
			w.doneOnce.Do(func() { close(w.done) })
			close(rel)
			return false
		}
		if added := w.ast.atBoundary(w.nextB, w.gate.chunks); added > 0 {
			atomic.AddInt64(w.global, added)
		}
		close(rel)
		return true
	}
	w.idle.Store(true)
	w.gate.drainBarrier(w)
	for {
		select {
		case <-rel:
			w.idle.Store(false)
			return !w.isDone()
		case <-w.done:
			w.idle.Store(false)
			return false
		case <-w.notify:
			w.gate.drainBarrier(w)
		}
	}
}

// splitPositionsWork splits [0, n) into w contiguous chunks at the work
// quantiles of the per-host work estimates (nil work = uniform), then nudges
// each cut onto the largest-delay link within a window around its quantile
// position. Cuts are strictly increasing and every chunk is non-empty for
// any 2 <= w <= n.
func splitPositionsWork(delays []int, work []int64, w int) []int {
	n := len(delays) + 1
	cuts := make([]int, 1, w+1)
	window := max(1, n/(4*w)) // n < 4w would otherwise collapse the nudge search
	var prefix []int64
	var total int64
	if work != nil {
		prefix = make([]int64, n+1)
		for p := 0; p < n; p++ {
			prefix[p+1] = prefix[p] + work[p]
		}
		total = prefix[n]
	}
	for i := 1; i < w; i++ {
		var target int
		if total > 0 {
			// Smallest position whose work prefix reaches the i-th
			// quantile: chunk i gets ~1/w of the total work.
			want := int64(i) * total
			lo, hi := 0, n
			for lo < hi {
				mid := (lo + hi) / 2
				if prefix[mid]*int64(w) < want {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			target = lo
		} else {
			target = i * n / w
		}
		// Cut i must leave a position for every chunk before and after it.
		// A work quantile can fall outside that range (heavy work at a line
		// end), so clamp the target first: the nudge window then always
		// holds a feasible cut.
		lo, hi := cuts[len(cuts)-1]+1, n-(w-i)
		target = min(max(target, lo), hi)
		lo, hi = max(lo, target-window), min(hi, target+window)
		best, bestD := lo, -1
		for p := lo; p <= hi; p++ {
			if d := delays[p-1]; d > bestD {
				best, bestD = p, d
			}
		}
		cuts = append(cuts, best)
	}
	cuts = append(cuts, n)
	return cuts
}

// runParallel executes the simulation with cfg.Workers conservative chunks,
// cut at the work quantiles of the assignment's per-host pebble counts.
func runParallel(cfg *Config, rt *routeTable) (*Result, error) {
	n := cfg.hostN()
	w := min(cfg.Workers, n/2)
	if w < 2 {
		return runSequential(cfg, rt)
	}
	// Per-host work estimate: pebbles to compute, plus a baseline unit so
	// pure relay hosts still count toward chunk sizes.
	work := make([]int64, n)
	for p := 0; p < n; p++ {
		work[p] = 1 + int64(len(cfg.Assign.Owned[p]))*int64(cfg.Guest.Steps)
	}
	return runParallelWithCuts(cfg, rt, splitPositionsWork(cfg.Delays, work, w))
}

// runParallelWithCuts runs the parallel engine over an explicit cut vector
// (cuts[0] = 0 < cuts[1] < ... < cuts[w] = hostN). Any valid cut vector
// produces bit-identical results — the fuzz harness exercises exactly that.
func runParallelWithCuts(cfg *Config, rt *routeTable, cuts []int) (*Result, error) {
	n := cfg.hostN()
	w := len(cuts) - 1
	if w < 1 || cuts[0] != 0 || cuts[w] != n {
		return nil, fmt.Errorf("sim: invalid cut vector %v for %d hosts", cuts, n)
	}
	for i := 1; i <= w; i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, fmt.Errorf("sim: cut vector %v not strictly increasing", cuts)
		}
	}
	if w == 1 {
		return runSequential(cfg, rt)
	}
	chunks := make([]*chunk, w)
	var global int64
	for i := 0; i < w; i++ {
		chunks[i] = newChunk(cfg, rt, cuts[i], cuts[i+1])
		global += chunks[i].remaining
	}
	if global == 0 {
		return collect(cfg, chunks)
	}

	done := make(chan struct{})
	var doneOnce sync.Once
	var errMu sync.Mutex
	var firstErr error

	var gate *epochGate
	var quiet *quietGate
	if cfg.ast != nil {
		gate = newEpochGate(w, chunks)
	} else {
		quiet = &quietGate{}
	}
	workers := make([]*worker, w)
	for i := 0; i < w; i++ {
		workers[i] = &worker{
			c: chunks[i], global: &global, done: done, doneOnce: &doneOnce,
			errMu: &errMu, err: &firstErr,
			notify: make(chan struct{}, 1),
			quiet:  quiet,
		}
		if cfg.ast != nil {
			workers[i].ast = cfg.ast
			workers[i].gate = gate
			workers[i].nextB = int64(cfg.ast.policy.Epoch)
		}
	}
	if gate != nil {
		gate.workers = workers // terminal() scans every boundary ring
	} else {
		quiet.workers = workers
	}
	for i := 0; i < w-1; i++ {
		d := int64(cfg.Delays[cuts[i+1]-1])
		win := max(1, d/2)
		east := newSPSC[[]timedMsg](boundaryRingCap) // batches i -> i+1
		west := newSPSC[[]timedMsg](boundaryRingCap) // batches i+1 -> i
		eastFree := newSPSC[[]timedMsg](freeRingCap)
		westFree := newSPSC[[]timedMsg](freeRingCap)
		r := &side{
			delay: d, window: win, fromLeft: false,
			outbox: &chunks[i].outRight,
			in:     west, out: east, free: eastFree, retire: westFree,
			peer: workers[i+1], sentClock: 1,
		}
		l := &side{
			delay: d, window: win, fromLeft: true,
			outbox: &chunks[i+1].outLeft,
			in:     east, out: west, free: westFree, retire: eastFree,
			peer: workers[i], sentClock: 1,
		}
		r.pub.Store(1) // all workers start at step 1
		l.pub.Store(1)
		r.peerClock = &l.pub
		l.peerClock = &r.pub
		workers[i].right = r
		workers[i+1].left = l
	}

	var wg sync.WaitGroup
	maxSteps := cfg.maxSteps()
	for i, wk := range workers {
		wg.Add(1)
		labels := pprof.Labels("engine", "parallel",
			"chunk", fmt.Sprintf("%d:%d-%d", i, wk.c.lo, wk.c.hi))
		go func(wk *worker) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				wk.loop(maxSteps)
			})
		}(wk)
	}
	wg.Wait()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if rem := atomic.LoadInt64(&global); rem != 0 {
		return nil, fmt.Errorf("sim: parallel engine finished with %d pebbles remaining", rem)
	}
	return collect(cfg, chunks)
}
