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

// The engine has one driver, a conservative parallel discrete-event
// simulator: the host line is split into contiguous chunks, one worker
// each, with lookahead equal to the boundary link delay. A chunk whose
// clock is at step s cannot send anything that arrives before
// s + d_boundary, so its neighbor may safely simulate up to that horizon.
//
// A run with Config.Workers 0 or 1 is the driver's one-chunk case. Its
// single worker has no neighbor, so its horizon is farFuture: it never
// parks, and it runs on the caller's goroutine. Every arrival at the gate
// is its own, so the gate decides the end of the run, a stall and the
// next adaptive epoch with the same code for every chunk count.
//
// Four mechanisms keep several chunks busy without a channel operation on
// the hot path:
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
//   - One gate: a worker that cannot advance on its own (its clock at the
//     adaptive epoch cap, or, in a plain run, no event left in its chunk)
//     waits in a shared gate instead of parking alone. The arrival that
//     fills the gate decides, from simulation state alone and never from
//     wall-clock time, whether the run is over, the next epoch may start,
//     or the run has stalled (see gate).
//
// Runs are bit-identical for every cut vector because coalescing only
// delays *transport*, never reorders *simulation*: a batch held after a
// flush at clock s0 contains messages injected at steps >= s0, which arrive
// at or after s0 + d; the neighbor that read pub = s0 simulates strictly
// below s0 + d, so no held message can be needed before the next flush
// publishes it. Within a chunk, same-step delivery order is fixed by the
// calendar's (position, from-left-first) key exactly as in a one-chunk run,
// and receiveBoundary stamps arrivals with the same steps a local link
// would have produced. See DESIGN.md §5 for the full argument.

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
	run         *run

	idle   atomic.Bool
	notify chan struct{} // 1-slot wakeup, paired with idle (Dekker handshake)
}

// run is the state every worker of one run shares; the Arena keeps it
// between runs.
type run struct {
	remaining atomic.Int64  // pebbles left across all chunks
	done      chan struct{} // closed when the run ends, for any reason
	doneOnce  sync.Once
	err       error // why the run ended early; written once, by end
	gate      gate
}

// end ends the run with err (nil: finished). The first ending wins.
func (r *run) end(err error) {
	r.doneOnce.Do(func() {
		r.err = err
		close(r.done)
	})
}

func (r *run) isDone() bool {
	select {
	case <-r.done:
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
		if w.run.isDone() {
			return false
		}
		if tel := w.c.tel; tel != nil {
			tel.RingFullStalls.Add(1)
		}
		w.drainAll()
		s.peer.wake()
		runtime.Gosched()
	}
	s.sentClock = now
	if tel := w.c.tel; tel != nil {
		tel.BoundaryFlushes.Add(1)
		tel.BoundaryMsgs.Add(int64(len(batch)))
		tel.BoundaryBatchSize.Observe(int64(len(batch)))
		tel.RingOccupancyPeak.SetMax(int64(s.out.len()))
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
	for _, s := range []*side{w.left, w.right} {
		if s == nil {
			continue
		}
		if lag := w.c.now - s.peerClock.Load(); lag > 0 {
			tel.PubclockLagMax.SetMax(lag)
		}
	}
}

// runUntil simulates local steps strictly below h, fast-forwarding over
// quiet periods (steps where nothing computes, arrives or transmits) and
// decrementing the shared remaining counter as pebbles complete. It returns
// false once the run has ended: at the step cap, or at a plain run's last
// pebble.
func (w *worker) runUntil(h, maxSteps int64) bool {
	c := w.c
	for c.now < h {
		if c.now > maxSteps {
			w.run.end(fmt.Errorf("sim: chunk [%d,%d) exceeded step cap %d: %s",
				c.lo, c.hi, maxSteps, frontier(c)))
			return false
		}
		before := c.remaining
		did := c.step()
		if delta := before - c.remaining; delta > 0 {
			// A plain run ends at its last pebble. An adaptive run keeps
			// going to drain standby-bound traffic (see chunk.quiescent),
			// and the gate ends it.
			if w.run.remaining.Add(-delta) == 0 && w.run.gate.ast == nil {
				w.run.end(nil)
				return false
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
	// The epoch cap: no chunk simulates past an epoch boundary before the
	// controller has run there, which is what makes the activation points
	// identical for every chunk count. A plain run is an adaptive run whose
	// cap never arrives. Only the filling arrival moves the gate's cap, and
	// not before this worker is inside.
	limit := w.run.gate.limit
	for !w.run.isDone() { // finished, stalled, or another error
		// Sample clocks before draining: any batch covering a clock we
		// read was pushed before that clock was published, so the drain
		// below observes it and nothing within the horizon is missed.
		h := min(w.horizon(), limit)
		w.drainAll()
		w.recordClockLag()
		if w.c.now < h {
			if !w.runUntil(h, maxSteps) || !w.ship(false) {
				return
			}
			continue
		}
		// Blocked at the horizon: everything we hold is due — ship it and
		// promise our current clock (the demand-driven null message).
		if !w.ship(true) {
			return
		}
		// A worker that cannot advance on its own waits in the gate: at
		// the epoch cap, or with no event left in a plain run's chunk.
		// Anyone else parks until a neighbor publishes or the run ends.
		_, busy := w.c.nextEvent()
		if w.c.now == limit || limit == farFuture && !busy {
			var ok bool
			if limit, ok = w.wait(limit); !ok {
				return
			}
			continue
		}
		w.idle.Store(true)
		if w.horizon() > w.c.now || w.pendingInput() || w.run.isDone() {
			w.idle.Store(false)
			continue
		}
		w.recordClockLag()
		woke := w.park()
		w.idle.Store(false)
		if !woke {
			return
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
		tel.WorkerParks.Add(1)
		start = time.Now()
	}
	woke := true
	select {
	case <-w.notify:
	case <-w.run.done:
		woke = false
	}
	if tel != nil {
		if woke {
			tel.WorkerWakes.Add(1)
		}
		tel.WorkerBlockedNs.Add(int64(time.Since(start)))
	}
	return woke
}

// gate is the driver's one rendezvous. A worker enters it when it
// cannot advance on its own and leaves it, under the mutex and before
// draining, only when a neighbor's batch is pending or the epoch it waited
// at has been released. Inside, a worker never changes its chunk's event
// state or any ring: it only moves its clock up to its horizon and
// publishes, so its neighbors can still reach the same point. The arrival
// that fills the gate therefore sees a fixed state, and decides (see
// decide). Arrivals are counted per epoch: a release resets the count, so
// a fast worker's next arrival cannot fill a gate that slow workers have
// not left yet. DESIGN.md §5 gives the full argument.
type gate struct {
	mu      sync.Mutex
	in      int         // workers inside, waiting at limit
	limit   int64       // the epoch cap, boundary+1; farFuture in a plain run
	ast     *adaptState // nil in a plain run
	workers []*worker
	chunks  []*chunk
}

// wait holds w in the gate, entered with its clock at most limit, until it
// may move again. It returns the epoch cap to run toward next, or false once
// the run is over.
func (w *worker) wait(limit int64) (int64, bool) {
	r, g := w.run, &w.run.gate
	w.idle.Store(true)
	defer w.idle.Store(false)
	g.mu.Lock()
	g.in++
	if g.in == len(g.workers) && !r.decide() {
		g.mu.Unlock()
		return 0, false
	}
	g.mu.Unlock()
	for {
		// The horizon is read before the rings, so any batch arriving
		// below it is already visible (its push preceded the clock it
		// covers) and makes w leave instead of moving its clock.
		h := min(w.horizon(), limit)
		g.mu.Lock()
		if g.limit != limit { // released: the filling arrival reset the count
			limit = g.limit
			g.mu.Unlock()
			return limit, true
		}
		if w.pendingInput() {
			g.in--
			g.mu.Unlock()
			return limit, true
		}
		g.mu.Unlock()
		if h > w.c.now {
			w.c.now = h
			w.ship(true) // the outboxes are empty: this only publishes
		}
		if !w.park() {
			return 0, false
		}
	}
}

// decide is the verdict of the arrival that fills the gate, taken under
// the gate mutex with every worker inside. With no pebbles left and
// nothing able to move, the run is over, before the controller runs at
// this boundary: an adaptive run that drains dry mid-epoch activates
// nothing there. Otherwise an adaptive run's clocks all sit at the cap, so
// the controller runs over every chunk and the next epoch is released. A
// plain run with nothing able to move has stalled. Reports whether the run
// goes on.
func (r *run) decide() bool {
	g := &r.gate
	if r.remaining.Load() == 0 && settled(g.workers) {
		r.end(nil)
		return false
	}
	if g.ast != nil {
		r.remaining.Add(g.ast.atBoundary(g.limit-1, g.chunks))
		g.limit += int64(g.ast.policy.Epoch)
		g.in = 0
		for _, wk := range g.workers {
			wk.wake()
		}
		return true
	}
	if settled(g.workers) {
		r.end(fmt.Errorf("sim: stalled with every chunk quiet: %s", frontier(g.chunks...)))
		return false
	}
	return true
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

// cutLine returns cfg's cut vector: [0, n] for one chunk, else
// cfg.Workers chunks (at most one per two hosts) cut at the work quantiles
// of the assignment's per-host pebble counts.
func (a *Arena) cutLine(cfg *Config) []int {
	n := cfg.hostN()
	w := min(cfg.Workers, n/2)
	if w < 2 {
		a.cuts = append(a.cuts[:0], 0, n)
		return a.cuts
	}
	// Per-host work estimate: pebbles to compute, plus a baseline unit so
	// pure relay hosts still count toward chunk sizes.
	work := make([]int64, n)
	for p := 0; p < n; p++ {
		work[p] = 1 + int64(len(cfg.Assign.Owned[p]))*int64(cfg.Guest.Steps)
	}
	return splitPositionsWork(cfg.Delays, work, w)
}

// runCuts runs the simulation over an explicit cut vector (cuts[0] = 0 <
// cuts[1] < ... < cuts[w] = hostN), one chunk and one worker per span. Any
// valid cut vector produces bit-identical results — the fuzz harness
// exercises exactly that.
func (a *Arena) runCuts(cfg *Config, rt *routeTable, cuts []int) (*Result, error) {
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
	var total int64
	for i := 0; i < w; i++ {
		total += newChunk(a.shell(i), cfg, rt, cuts[i], cuts[i+1]).remaining
	}
	chunks := a.shells[:w]
	if total == 0 {
		return collect(cfg, chunks)
	}

	r := &a.run
	*r = run{done: make(chan struct{}), gate: gate{limit: farFuture, ast: cfg.ast, chunks: chunks}}
	r.remaining.Store(total)
	if cfg.ast != nil {
		r.gate.limit = int64(cfg.ast.policy.Epoch) + 1
	}
	for len(a.workers) < w {
		a.workers = append(a.workers, &worker{notify: make(chan struct{}, 1)})
	}
	workers := a.workers[:w]
	for i, wk := range workers {
		// A wakeup an earlier run left in notify is spurious: every park
		// rechecks what it waits for.
		*wk = worker{c: chunks[i], run: r, notify: wk.notify}
	}
	r.gate.workers = workers
	for i := 0; i < w-1; i++ {
		d := int64(cfg.Delays[cuts[i+1]-1])
		win := max(1, d/2)
		east := newSPSC[[]timedMsg](boundaryRingCap) // batches i -> i+1
		west := newSPSC[[]timedMsg](boundaryRingCap) // batches i+1 -> i
		eastFree := newSPSC[[]timedMsg](freeRingCap)
		westFree := newSPSC[[]timedMsg](freeRingCap)
		rs := &side{
			delay: d, window: win, fromLeft: false,
			outbox: &chunks[i].outRight,
			in:     west, out: east, free: eastFree, retire: westFree,
			peer: workers[i+1], sentClock: 1,
		}
		ls := &side{
			delay: d, window: win, fromLeft: true,
			outbox: &chunks[i+1].outLeft,
			in:     east, out: west, free: westFree, retire: eastFree,
			peer: workers[i], sentClock: 1,
		}
		rs.pub.Store(1) // all workers start at step 1
		ls.pub.Store(1)
		rs.peerClock = &ls.pub
		ls.peerClock = &rs.pub
		workers[i].right = rs
		workers[i+1].left = ls
	}

	maxSteps := cfg.maxSteps()
	if w == 1 {
		workers[0].loop(maxSteps) // no neighbor to run beside: no goroutine
	} else {
		var wg sync.WaitGroup
		for i, wk := range workers {
			wg.Add(1)
			labels := pprof.Labels("engine", "parallel",
				"chunk", fmt.Sprintf("%d:%d-%d", i, wk.c.lo, wk.c.hi))
			go func() {
				defer wg.Done()
				pprof.Do(context.Background(), labels, func(context.Context) {
					wk.loop(maxSteps)
				})
			}()
		}
		wg.Wait()
	}

	if r.err != nil {
		return nil, r.err
	}
	if rem := r.remaining.Load(); rem != 0 {
		return nil, fmt.Errorf("sim: run finished with %d pebbles remaining", rem)
	}
	return collect(cfg, chunks)
}
