package sim

import (
	"fmt"
	"slices"

	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// msg is one pebble value in transit along a route. next carries the next
// destination's absolute position so relays never load the route record or
// decode the chain — field alignment keeps the struct at 24 bytes with or
// without it.
type msg struct {
	route int32 // index into routeTable.routes
	di    int32 // next destination index within the route chain
	next  int32 // next destination position
	step  int32
	value uint64
}

// timedMsg is a transmitted message with its stamped arrival step.
type timedMsg struct {
	arrive int64
	m      msg
}

// dlink is one directed link: a FIFO queue awaiting injection (bandwidth
// limited) and a FIFO of in-flight messages ordered by arrival step.
type dlink struct {
	delay    int
	bw       int
	queue    []msg
	qh       int
	peakQ    int // high-water mark of the injection queue
	inflight []timedMsg
	ih       int
}

func (l *dlink) qlen() int { return len(l.queue) - l.qh }

func (l *dlink) enqueue(m msg) {
	l.queue = append(l.queue, m)
	if q := l.qlen(); q > l.peakQ {
		l.peakQ = q
	}
}

func (l *dlink) popQueue() msg {
	m := l.queue[l.qh]
	l.qh++
	if l.qh > 64 && l.qh*2 > len(l.queue) {
		n := copy(l.queue, l.queue[l.qh:])
		l.queue = l.queue[:n]
		l.qh = 0
	}
	return m
}

func (l *dlink) pushInflight(t timedMsg) {
	if n := len(l.inflight); n > l.ih && l.inflight[n-1].arrive > t.arrive {
		// Delay jitter can stamp a later injection with an earlier arrival;
		// insert in arrival order (stable: equal arrivals keep send order).
		i := n
		for i > l.ih && l.inflight[i-1].arrive > t.arrive {
			i--
		}
		l.inflight = append(l.inflight, timedMsg{})
		copy(l.inflight[i+1:], l.inflight[i:])
		l.inflight[i] = t
		return
	}
	l.inflight = append(l.inflight, t)
}

func (l *dlink) headArrival() (int64, bool) {
	if l.ih >= len(l.inflight) {
		return 0, false
	}
	return l.inflight[l.ih].arrive, true
}

func (l *dlink) popInflight() msg {
	m := l.inflight[l.ih].m
	l.ih++
	if l.ih > 64 && l.ih*2 > len(l.inflight) {
		n := copy(l.inflight, l.inflight[l.ih:])
		l.inflight = l.inflight[:n]
		l.ih = 0
	}
	return m
}

// ownedCol is one database replica held by a workstation, together with the
// greedy progress state for its pebble column. It is the per-pebble hot
// record, so it holds exactly one cache line (64 bytes) and no slices: the
// column's variable-length state lives in flat arrays it indexes by
// offset/length pairs —
//
//	guest neighbors:  proc.nbCol/nbDense/depVals[nbOff : nbOff+nbN]
//	routes it feeds:  routeTable.routeIDs[rtOff : rtOff+rtN]
type ownedCol struct {
	col       int32
	selfDense int32  // col's index in the proc's dense knowledge store
	next      int32  // next guest step to compute (1-based; T+1 when done)
	missing   int32  // unknown dependencies for step `next`
	lastVal   uint64 // value at step next-1 (own column, computed locally)
	db        guest.Database
	nbOff     int32 // first neighbor slot in the proc's flat arrays
	nbN       int32 // guest neighbors (ascending from nbOff)
	rtOff     int32 // first route id in routeTable.routeIDs
	rtN       int32 // routes this position feeds for this column

	// Adaptive replication (Config.Adapt; see adapt.go). standby marks a
	// provisioned extra replica, appended after the base columns; dormant
	// standbys never compute and hold no pebbles in the remaining counters
	// until the controller activates them. The column's stall forensics live
	// in the proc's side arrays (proc.blockedAt, proc.depBlame) so this hot
	// record stays compact.
	standby bool
	dormant bool
}

// waitNode is one entry in a proc's pooled waiter lists: owned index `idx`
// is blocked on the key the list hangs off and will receive the value in
// the proc's depVals[slot]; `next` chains within the pool (-1 ends the
// list). Freed nodes are recycled through waitFree.
type waitNode struct {
	idx  int32
	slot int32
	next int32
}

// proc is the state of one workstation.
type proc struct {
	pos  int32
	cols []ownedCol
	// Neighbor slots of every owned column, concatenated (ownedCol.nbOff
	// indexes them): the guest column, its dense store index, and the cached
	// dependency value for the owning column's step `next`. depVals slots
	// are filled when the column advances (value already known) or pushed by
	// recordValue when the awaited value lands, so the compute gather never
	// probes the knowledge table.
	nbCol   []int32
	nbDense []int32
	depVals []uint64
	// know is the dense knowledge store: known values and pending-waiter
	// anchors, indexed by (dense column, step) — see dense.go.
	know      denseKnow
	waitPool  []waitNode
	waitFree  int32 // freelist head, -1 when empty
	ready     readySet
	active    bool // member of the chunk's active list
	crashed   bool // crash-stopped: never computes again
	computed  int64
	remaining int64 // pebbles this workstation still has to compute
	// dupDense (adaptive runs only) flags the dense indexes of the proc's
	// standby columns: a standby host both computes its standby column and
	// still receives it via the pre-provisioned route, so a second sighting
	// of those values is benign rather than a conservation violation.
	dupDense []bool
	// Stall forensics (adaptive runs only, harvested by the controller at
	// epoch boundaries; nil otherwise): when a column blocks on missing
	// dependencies, blockedAt (parallel to cols) remembers the step, and on
	// unblock the span is charged to the last-arriving dependency's slot in
	// depBlame (parallel to depVals).
	blockedAt []int64
	depBlame  []int64

	// waiter-pool accounting (plain increments; collect sums them into
	// Result.Work)
	waitHits, waitGrows int64
}

// addWaiter blocks owned index idx (dependency slot `slot`) on the value
// (dense, step), pooling the list node. The chain head lives directly in
// the dense store's slot, so registering a waiter never hashes.
func (p *proc) addWaiter(dense, step, idx, slot int32) {
	ni := p.waitFree
	if ni >= 0 {
		p.waitFree = p.waitPool[ni].next
		p.waitHits++
	} else {
		ni = int32(len(p.waitPool))
		p.waitPool = append(p.waitPool, waitNode{})
		p.waitGrows++
	}
	s := p.know.waiterSlot(dense, step)
	p.waitPool[ni] = waitNode{idx: idx, slot: slot, next: s.waitHead}
	s.waitHead = ni
}

// chunk simulates a contiguous slice [lo, hi) of the host line, one per
// worker of the driver (parallel.go); a one-chunk run covers the line.
type chunk struct {
	cfg *Config
	rt  *routeTable
	mem chunkMem // backing memory the shell keeps across runs

	lo, hi int
	hostN  int
	T      int32
	cps    int

	now   int64
	procs []proc

	// right[i-lo] is link (i -> i+1) for lo <= i < hi (nil entry when the
	// link does not exist); left[i-lo] is link (i -> i-1). Links whose
	// sender position is in the chunk are owned by the chunk: their
	// queueing, bandwidth and arrival stamping happen here.
	right []*dlink
	left  []*dlink
	// inLeft receives messages crossing the boundary link (lo-1 -> lo);
	// inRight receives messages crossing (hi -> hi-1).
	inLeft, inRight dlink

	cal        bucketCal
	activeList []int32 // positions with non-empty ready sets
	txActive   []int32 // encoded links with queued messages: pos*2 (+1 left)
	txFlag     []bool  // indexed by link code
	// activeSpare/txSpare are the previous step's drained lists, recycled as
	// next step's append targets so the per-step rebuild never allocates.
	activeSpare []int32
	txSpare     []int32

	// outbound boundary batches (multi-chunk runs)
	outLeft, outRight []timedMsg

	remaining       int64
	lastComputeStep int64

	// adaptive replication: blame tracking armed (Config.Adapt enabled) and
	// the last processed epoch boundary, which clips open blocked spans.
	adaptOn    bool
	epochStart int64

	// fault injection (nil plan = no overhead beyond a nil check)
	faults *fault.Plan
	crashQ []crashEvent // pending crash-stops, (step, pos)-sorted

	// stats; overflows counts crossings that arrive a calendar ring span or
	// more after their send step (Work.CalOverflowEvents)
	messages, hops, delivered, duplicates, overflows int64

	// deliverTap, when non-nil (tests only), observes every counted
	// delivery; a single nil check on the hot path.
	deliverTap func(pos int, col, step int32, value uint64)

	// event buffer (Config.Recorder != nil); chunks never share a buffer,
	// so workers record race-free. collect() merges the canonical stream
	// into Config.Recorder.
	buf *obs.Buffer

	// telemetry (Config.Telemetry != nil): one shard per chunk, the step
	// tick of its progress pushes and the pebble count last pushed (see
	// telemetry.go).
	tel        *telemetry.Shard
	telTick    int64
	telPebbles int64
}

// chunkMem is the flat backing memory newChunk carves a chunk's
// per-workstation state from, kept with the chunk shell across runs.
type chunkMem struct {
	cols    []ownedCol
	nbCol   []int32
	nbDense []int32
	depVals []uint64
	ready   []uint64 // readySet rings, readyBuckets per workstation
	dbs     []guest.MixDB
	rings   []kring
	slots   []kslot
	links   []dlink
}

// newChunk builds chunk state for positions [lo, hi) in shell c. Only c's
// backing memory survives from its earlier runs (see Arena); every field
// of its logical state starts over as in a zero shell.
func newChunk(c *chunk, cfg *Config, rt *routeTable, lo, hi int) *chunk {
	n := cfg.hostN()
	c.cal.reset() // empties its buckets in place; the literal carries them over
	*c = chunk{
		cfg: cfg, rt: rt, lo: lo, hi: hi, hostN: n,
		T:       int32(cfg.Guest.Steps),
		cps:     cfg.computePerStep(),
		now:     1,
		adaptOn: cfg.ast != nil,

		mem:         c.mem,
		cal:         c.cal,
		procs:       reuse(c.procs, hi-lo),
		right:       reuse(c.right, hi-lo),
		left:        reuse(c.left, hi-lo),
		inLeft:      dlink{inflight: c.inLeft.inflight[:0]},
		inRight:     dlink{inflight: c.inRight.inflight[:0]},
		txFlag:      reuse(c.txFlag, 2*n),
		activeList:  c.activeList[:0],
		txActive:    c.txActive[:0],
		activeSpare: c.activeSpare[:0],
		txSpare:     c.txSpare[:0],
		outLeft:     c.outLeft[:0],
		outRight:    c.outRight[:0],
		crashQ:      c.crashQ[:0],
	}
	clear(c.txFlag)
	if cfg.Recorder != nil {
		c.buf = obs.NewBuffer()
	}
	// The default database is built in place in mem.dbs; a custom factory
	// is called once per replica.
	factory := cfg.Guest.NewDatabase
	neighbors := cfg.Guest.Graph.Neighbors
	// held lists a position's base columns, then its standbys.
	held := func(pos int) []int {
		cols := cfg.Assign.Owned[pos]
		if c.adaptOn && len(cfg.ast.extraCols[pos]) > 0 {
			cols = append(slices.Clip(cols), cfg.ast.extraCols[pos]...)
		}
		return cols
	}
	var nCols, nSlots, nReady int
	for pos := lo; pos < hi; pos++ {
		all := held(pos)
		nReady += readyBuckets * readyWords(len(all))
		for _, col := range all {
			nCols++
			nSlots += len(neighbors(col))
		}
	}
	// One backing array per record kind serves the whole chunk, so every
	// replica record shares a single allocation and neighboring
	// workstations' state is contiguous.
	m := &c.mem
	m.cols, m.nbCol = reuse(m.cols, nCols), reuse(m.nbCol, nSlots)
	m.nbDense, m.depVals = reuse(m.nbDense, nSlots), reuse(m.depVals, nSlots)
	m.ready = reuse(m.ready, nReady)
	clear(m.ready)
	if factory == nil {
		m.dbs = reuse(m.dbs, nCols)
	}
	// Knowledge rings: position pos's universe is rt.universe(pos), and its
	// rings are the matching span of one chunk-wide array.
	uLo := rt.uniOff[lo]
	m.rings = reuse(m.rings, rt.uniOff[hi]-uLo)
	m.slots = reuse(m.slots, len(m.rings)*initRingSlots)
	clear(m.rings)
	clear(m.slots)
	cols, nbCol, nbDense, depVals := m.cols[:0], m.nbCol[:0], m.nbDense[:0], m.depVals[:0]
	ready := m.ready
	for pos := lo; pos < hi; pos++ {
		p := &c.procs[pos-lo]
		*p = proc{pos: int32(pos), waitFree: -1, waitPool: p.waitPool[:0]}
		base := len(cfg.Assign.Owned[pos])
		all := held(pos)
		universe := rt.universe(pos)
		// rings[d].cons counts the local reads of dense column d's values:
		// each held column reads its own and each neighbor's. The knowledge
		// store retires a value once all of them have computed past it.
		r0 := rt.uniOff[pos] - uLo
		rings := m.rings[r0 : r0+len(universe)]
		c0, s0 := len(cols), len(nbCol)
		for i, col := range all {
			oc := ownedCol{col: int32(col), next: 1}
			if factory == nil {
				m.dbs[len(cols)].Reset(col, cfg.Guest.Seed)
				oc.db = &m.dbs[len(cols)]
			} else {
				oc.db = factory(col, cfg.Guest.Seed)
			}
			oc.selfDense = denseIndex(universe, oc.col)
			rings[oc.selfDense].cons++
			oc.nbOff = int32(len(nbCol) - s0)
			for _, nb := range neighbors(col) {
				d := denseIndex(universe, int32(nb))
				rings[d].cons++
				nbCol = append(nbCol, int32(nb))
				nbDense = append(nbDense, d)
				// Step-1 dependencies are the initial values, known up front.
				depVals = append(depVals, cfg.Guest.InitialValue(nb))
			}
			oc.nbN = int32(len(nbCol)-s0) - oc.nbOff
			if i < base {
				oc.rtOff, oc.rtN = rt.routeSpan(pos, i)
				p.remaining += int64(c.T)
			} else {
				// Standby replica: dormant, no routes (standbys never send),
				// no pebbles until activated.
				oc.standby, oc.dormant = true, true
				if p.dupDense == nil {
					p.dupDense = make([]bool, len(universe))
				}
				p.dupDense[oc.selfDense] = true
			}
			cols = append(cols, oc)
		}
		p.cols = cols[c0:len(cols):len(cols)]
		p.nbCol = nbCol[s0:len(nbCol):len(nbCol)]
		p.nbDense = nbDense[s0:len(nbCol):len(nbCol)]
		p.depVals = depVals[s0:len(nbCol):len(nbCol)]
		if c.adaptOn {
			p.blockedAt = make([]int64, len(p.cols))
			p.depBlame = make([]int64, len(p.depVals))
		}
		p.know = newDenseKnow(universe, rings, m.slots[r0*initRingSlots:(r0+len(rings))*initRingSlots])
		w := readyWords(len(all))
		p.ready = readySet{bits: ready[:readyBuckets*w], words: int32(w), mask: readyBuckets - 1}
		ready = ready[readyBuckets*w:]
		// All step-0 values are initial state, known everywhere, so every
		// base column starts ready (when T >= 1). Standby columns wait for
		// activation.
		if c.T >= 1 {
			for i := 0; i < base; i++ {
				p.ready.push(1, int32(i))
			}
			if base > 0 {
				p.active = true
				c.activeList = append(c.activeList, int32(pos))
			}
		}
		c.remaining += p.remaining
	}
	// Links, pre-sized from the route table's per-link crossing counts so
	// steady-state queueing never grows a slice (capacities only: the
	// clamps keep wildly-multicast configurations from over-allocating).
	m.links = reuse(m.links, 2*(hi-lo))
	bw := cfg.bandwidth()
	link := func(l *dlink, delay int, cross int32) *dlink {
		*l = dlink{delay: delay, bw: bw, queue: l.queue[:0], inflight: l.inflight[:0]}
		if cross > 0 {
			l.queue = presize(l.queue, min(int(cross), 64))
			l.inflight = presize(l.inflight, min(2*int(cross), 128))
		}
		return l
	}
	for pos := lo; pos < hi; pos++ {
		i := pos - lo
		c.right[i], c.left[i] = nil, nil
		if pos < n-1 {
			c.right[i] = link(&m.links[2*i], cfg.Delays[pos], rt.crossAt(rt.crossR, pos))
		}
		if pos > 0 {
			c.left[i] = link(&m.links[2*i+1], cfg.Delays[pos-1], rt.crossAt(rt.crossL, pos-1))
		}
	}
	// Boundary outboxes (multi-chunk runs): size for a few steps' worth of
	// crossing traffic so windowed coalescing appends without reallocating.
	if lo > 0 {
		if cross := rt.crossAt(rt.crossL, lo-1); cross > 0 {
			c.outLeft = presize(c.outLeft, min(4*int(cross), 256))
		}
	}
	if hi < n {
		if cross := rt.crossAt(rt.crossR, hi-1); cross > 0 {
			c.outRight = presize(c.outRight, min(4*int(cross), 256))
		}
	}
	c.cal.due = presize(c.cal.due, min(2*(hi-lo), 64))
	if cfg.Faults != nil {
		c.initFaults(cfg.Faults)
	}
	c.initTelemetry()
	return c
}

// crossAt reads a crossing-count entry, tolerating tables built for tiny
// lines where the arrays are absent.
func (rt *routeTable) crossAt(arr []int32, link int) int32 {
	if link < 0 || link >= len(arr) {
		return 0
	}
	return arr[link]
}

func (c *chunk) proc(pos int) *proc { return &c.procs[pos-c.lo] }

// sideKey encodes a position and one of its two sides as pos*2 + side. It
// names a directed link in the txActive set (side: leftward) and a delivery
// in the calendar (side: from the right), so both sort by position first.
func sideKey(pos int, second bool) int32 {
	v := int32(pos) * 2
	if second {
		v++
	}
	return v
}

func (c *chunk) markTx(pos int, leftward bool) {
	code := sideKey(pos, leftward)
	if !c.txFlag[code] {
		c.txFlag[code] = true
		c.txActive = append(c.txActive, code)
	}
}

// enqueueFrom places m on the outgoing link from pos in direction dir.
func (c *chunk) enqueueFrom(pos int, dir int8, m msg) {
	l := c.right[pos-c.lo]
	if dir < 0 {
		l = c.left[pos-c.lo]
	}
	if l == nil {
		panic(fmt.Sprintf("sim: send in direction %d off the line end at %d", dir, pos))
	}
	l.enqueue(m)
	c.markTx(pos, dir < 0)
}

// handleArrival processes message m arriving at position pos: deliver when
// pos is the precomputed next destination, then relay onward while
// destinations remain. Pure relays never touch the route table — the travel
// direction is the sign of (next - pos) — so through-traffic stays within
// the 24-byte message.
func (c *chunk) handleArrival(pos int, m msg) {
	if int(m.next) != pos {
		dir := int8(1)
		if int(m.next) < pos {
			dir = -1
		}
		c.enqueueFrom(pos, dir, m)
		return
	}
	r := &c.rt.routes[m.route]
	base := r.off + 2*m.di
	c.deliverValue(pos, m.route, r.col, c.rt.chainArena[base+1], m.step, m.value)
	m.di++
	if m.di >= r.n {
		return
	}
	delta := c.rt.chainArena[base+2]
	if r.dir > 0 {
		m.next = int32(pos) + delta
	} else {
		m.next = int32(pos) - delta
	}
	c.enqueueFrom(pos, r.dir, m)
}

// deliverValue records (col, step) = value at pos and unblocks waiters.
// `dense` is col's index in pos's knowledge store, precomputed on the route
// at build time so the delivery path never resolves a column.
func (c *chunk) deliverValue(pos int, route int32, col, dense, step int32, value uint64) {
	p := c.proc(pos)
	// A standby host computes its standby column locally and still receives
	// it via the provisioned route; that collision is benign (the values are
	// identical). Count the delivery, keep the stored value. Anything else
	// is a conservation violation.
	known := p.know.has(dense, step)
	if known && (p.dupDense == nil || !p.dupDense[dense]) {
		c.duplicates++
		return
	}
	c.delivered++
	if c.buf != nil {
		c.buf.RecordDeliver(c.now, int32(pos), route, col, step)
	}
	if c.deliverTap != nil {
		c.deliverTap(pos, col, step, value)
	}
	if !known {
		c.recordValue(p, dense, step, value)
	}
}

// recordValue inserts a known value and unblocks any owned columns waiting
// on it. Used both for network deliveries and locally computed pebbles.
func (c *chunk) recordValue(p *proc, dense, step int32, value uint64) {
	head := p.know.put(dense, step, value)
	if p.crashed {
		return // still relays and stores, but never schedules work again
	}
	for ni := head; ni >= 0; {
		n := &p.waitPool[ni]
		p.depVals[n.slot] = value
		oc := &p.cols[n.idx]
		oc.missing--
		if oc.missing == 0 {
			if c.adaptOn {
				// Forensics: charge the blocked span (clipped to the current
				// epoch) to the last-arriving dependency's slot.
				from := p.blockedAt[n.idx]
				if from < c.epochStart {
					from = c.epochStart
				}
				if dur := c.now - from; dur > 0 {
					p.depBlame[n.slot] += dur
				}
			}
			p.ready.push(oc.next, n.idx)
			if !p.active {
				p.active = true
				c.activeList = append(c.activeList, p.pos)
			}
		}
		next := n.next
		n.next = p.waitFree
		p.waitFree = ni
		ni = next
	}
}

// computeOne pops and computes the lowest-(step, column) ready pebble at p.
// It returns false if nothing is ready.
func (c *chunk) computeOne(p *proc) bool {
	if p.ready.n == 0 {
		return false
	}
	t, idx := p.ready.pop()
	oc := &p.cols[idx]
	if t != oc.next {
		panic(fmt.Sprintf("sim: ready entry step %d != next %d for col %d at pos %d",
			t, oc.next, oc.col, p.pos))
	}
	// Dependency values at step t-1 live in the column's depVals slots,
	// filled when the column advanced (or prefilled with initial values for
	// t == 1).
	var self uint64
	if t == 1 {
		self = c.cfg.Guest.InitialValue(int(oc.col))
	} else {
		self = oc.lastVal
	}
	lo, hi := oc.nbOff, oc.nbOff+oc.nbN
	v := c.cfg.Guest.Compute(oc.db.Digest(), int(oc.col), int(t), self, p.depVals[lo:hi])
	oc.db.Apply(guest.Update{Node: int(oc.col), Step: int(t), Val: v})
	oc.lastVal = v
	p.computed++
	p.remaining--
	c.remaining--
	c.lastComputeStep = c.now
	if c.buf != nil {
		c.buf.RecordCompute(c.now, p.pos, oc.col, t)
	}

	// Values at the final step have no consumers anywhere (they would
	// only feed step T+1), so skip both retention and transmission.
	if t < c.T {
		// An activated standby may find the value already delivered by the
		// provisioned route; the delivery stored it (same value) and drained
		// any waiters, so a second record would double-unblock.
		if !oc.standby || !p.know.has(oc.selfDense, t) {
			c.recordValue(p, oc.selfDense, t, v)
		}
		for _, rid := range c.rt.routeIDs[oc.rtOff : oc.rtOff+oc.rtN] {
			r := &c.rt.routes[rid]
			next := p.pos + c.rt.chainArena[r.off]
			if r.dir < 0 {
				next = p.pos - c.rt.chainArena[r.off]
			}
			c.enqueueFrom(int(p.pos), r.dir, msg{route: rid, di: 0, next: next, step: t, value: v})
			c.messages++
		}
	}

	oc.next = t + 1

	// This column has read its step t-1 dependencies for the last time:
	// count each one consumed, retiring any value it was the last reader of.
	if t >= 2 {
		p.know.consume(oc.selfDense, t-1)
		for _, d := range p.nbDense[lo:hi] {
			p.know.consume(d, t-1)
		}
	}

	if oc.next > c.T {
		return true
	}
	missing := int32(0)
	// Self value (oc.col, t) was stored above (t < T here since next <= T).
	for j := lo; j < hi; j++ {
		if dv, ok := p.know.get(p.nbDense[j], t); ok {
			p.depVals[j] = dv
		} else {
			missing++
			p.addWaiter(p.nbDense[j], t, idx, j)
		}
	}
	oc.missing = missing
	if missing == 0 {
		p.ready.push(oc.next, idx)
	} else if c.adaptOn {
		p.blockedAt[idx] = c.now
	}
	return true
}

// deliveriesFor pops every message on l arriving exactly at step `now` and
// handles it at pos.
func (c *chunk) deliveriesFor(l *dlink, pos int) bool {
	did := false
	for {
		a, ok := l.headArrival()
		if !ok || a > c.now {
			break
		}
		if a < c.now {
			panic(fmt.Sprintf("sim: missed arrival at step %d (now %d) at pos %d", a, c.now, pos))
		}
		c.handleArrival(pos, l.popInflight())
		did = true
	}
	return did
}

// runDeliveries processes all calendar entries scheduled for the current
// step, in deterministic (position, from-left-first) order.
func (c *chunk) runDeliveries() bool {
	did := false
	for _, key := range c.cal.takeDue(c.now) {
		pos := int(key / 2)
		fromRight := key%2 == 1
		var l *dlink
		if fromRight {
			// delivery at pos from link (pos+1 -> pos)
			if pos+1 >= c.hi {
				l = &c.inRight
			} else {
				l = c.left[pos+1-c.lo]
			}
		} else {
			// delivery at pos from link (pos-1 -> pos)
			if pos-1 < c.lo {
				l = &c.inLeft
			} else {
				l = c.right[pos-1-c.lo]
			}
		}
		if c.deliveriesFor(l, pos) {
			did = true
		}
	}
	return did
}

// runCompute lets every active workstation compute up to cps pebbles.
func (c *chunk) runCompute() bool {
	did := false
	// The active list is rebuilt each step: workstations stay on it only
	// while their ready set is non-empty. Order does not affect state
	// (workstations interact only through links, whose effects land in
	// later steps), so no sorting is needed.
	cur := c.activeList
	c.activeList = c.activeSpare[:0]
	for _, pos := range cur {
		p := c.proc(int(pos))
		lim := c.cps
		if c.faults != nil {
			lim = c.faults.ComputeLimit(int(pos), c.now, lim)
		}
		for i := 0; i < lim; i++ {
			if !c.computeOne(p) {
				break
			}
			did = true
		}
		if p.ready.n > 0 {
			c.activeList = append(c.activeList, pos)
		} else {
			p.active = false
		}
	}
	c.activeSpare = cur[:0]
	return did
}

// runTransmit injects up to bw queued messages on every backlogged link and
// stamps their arrivals.
func (c *chunk) runTransmit() bool {
	did := false
	cur := c.txActive
	c.txActive = c.txSpare[:0]
	for _, code := range cur {
		pos := int(code / 2)
		leftward := code%2 == 1
		var l *dlink
		link := pos
		if leftward {
			l = c.left[pos-c.lo]
			link = pos - 1
		} else {
			l = c.right[pos-c.lo]
		}
		if c.faults != nil && c.faults.LinkDown(link, c.now) {
			// Outage: nothing injects this step; the queue waits and the
			// link stays flagged so the engine keeps stepping toward the
			// recovery.
			c.txActive = append(c.txActive, code)
			continue
		}
		for i := 0; i < l.bw && l.qlen() > 0; i++ {
			m := l.popQueue()
			arrive := c.now + int64(l.delay)
			if c.faults != nil {
				arrive += int64(c.faults.ExtraDelay(link, leftward, c.now, i))
			}
			c.hops++
			// Counted here, by the send step, for every chunk: a boundary
			// arrival is scheduled by the receiver's clock at drain time,
			// which depends on thread timing.
			if arrive-c.now >= calRingSize {
				c.overflows++
			}
			if c.buf != nil {
				dir := int8(1)
				if leftward {
					dir = -1
				}
				c.buf.RecordInject(c.now, int32(pos), int32(link), dir, m.route, c.rt.routes[m.route].col, m.step)
			}
			did = true
			switch {
			case leftward && pos == c.lo:
				c.outLeft = append(c.outLeft, timedMsg{arrive: arrive, m: m})
			case !leftward && pos == c.hi-1:
				c.outRight = append(c.outRight, timedMsg{arrive: arrive, m: m})
			case leftward:
				l.pushInflight(timedMsg{arrive: arrive, m: m})
				c.cal.schedule(c.now, arrive, sideKey(pos-1, true))
			default:
				l.pushInflight(timedMsg{arrive: arrive, m: m})
				c.cal.schedule(c.now, arrive, sideKey(pos+1, false))
			}
		}
		if l.qlen() > 0 {
			c.txActive = append(c.txActive, code) // stays flagged
		} else {
			c.txFlag[code] = false
		}
	}
	c.txSpare = cur[:0]
	return did
}

// step executes one host step (deliver, compute, transmit) and reports
// whether anything happened.
func (c *chunk) step() bool {
	if len(c.crashQ) > 0 && c.crashQ[0].step <= c.now {
		c.applyCrashes()
	}
	d1 := c.runDeliveries()
	d2 := c.runCompute()
	d3 := c.runTransmit()
	if c.tel != nil {
		c.telTick++
		if c.telTick&(telFlushInterval-1) == 0 {
			c.flushTelemetry()
		}
	}
	return d1 || d2 || d3
}

// quiescent reports that the chunk can never produce another event on its
// own: no ready work, no queued, in-flight or outboxed messages, nothing on
// the calendar. Pending crash-stops are ignored — with no work left they
// change nothing. Adaptive runs use this as the termination test: dormant
// standbys are route destinations that consume nothing, so standby-bound
// traffic can still be in flight after the last pebble computes, and every
// chunk count must drain it to the same (empty) state to stay bit-identical.
func (c *chunk) quiescent() bool {
	if len(c.activeList) > 0 || len(c.txActive) > 0 {
		return false
	}
	if len(c.outLeft) > 0 || len(c.outRight) > 0 {
		return false
	}
	return c.cal.empty()
}

// nextEvent returns the earliest step at which something can happen after
// `now`, or 0,false if the chunk is locally quiescent.
func (c *chunk) nextEvent() (int64, bool) {
	if len(c.activeList) > 0 || len(c.txActive) > 0 {
		return c.now + 1, true
	}
	next, ok := c.cal.next(c.now)
	if len(c.crashQ) > 0 && (!ok || c.crashQ[0].step < next) {
		// A pending crash-stop is a schedulable event: its write-off may be
		// what lets the run terminate.
		next, ok = c.crashQ[0].step, true
		if next <= c.now {
			next = c.now + 1
		}
	}
	return next, ok
}

// receiveBoundary appends a batch of boundary arrivals (already stamped by
// the sending chunk) and schedules their deliveries.
func (c *chunk) receiveBoundary(fromLeft bool, batch []timedMsg) {
	in, key := &c.inRight, sideKey(c.hi-1, true)
	if fromLeft {
		in, key = &c.inLeft, sideKey(c.lo, false)
	}
	for _, tm := range batch {
		in.pushInflight(tm)
		c.cal.schedule(c.now, tm.arrive, key)
	}
}

// peakQueue reports the chunk's deepest injection queue (bandwidth
// pressure).
func (c *chunk) peakQueue() int {
	best := 0
	for _, ls := range [][]*dlink{c.right, c.left} {
		for _, l := range ls {
			if l != nil && l.peakQ > best {
				best = l.peakQ
			}
		}
	}
	return best
}
