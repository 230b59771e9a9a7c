package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
)

// A route is a static multicast chain for one guest column's pebble stream:
// whenever the sender computes pebble (col, t), the value travels in
// direction dir and is delivered at every destination, in travel order.
// Routes are computed once per simulation.
//
// Destinations of a column are the holders of its guest-neighbor columns
// that do not hold the column itself (holders compute their own copy — that
// is the redundant computation doing its job). Each destination is served by
// its nearest holder, so a value crosses each link at most twice (once per
// direction) per guest step.
//
// Compact representation. Route records are fixed-size; the variable-length
// destination chains live in one shared arena as interleaved (delta, dense)
// pairs:
//
//	delta — hop distance to this destination in travel direction (from the
//	        sender for the first pair, from the previous destination after),
//	        always >= 1, so a chain is strictly monotone by construction;
//	dense — the column's index in that destination's dense knowledge store
//	        (dense.go), resolved at build time so deliveries never look a
//	        column up.
//
// Deltas are sender-relative, which is what makes sharing safe under
// mirroring: two replicated senders whose fan-outs have the same shape —
// the common case for block/mirrored assignments, where every replica of a
// column feeds the same relative pattern of neighbor holders — encode to
// identical (delta, dense) sequences even though their absolute destination
// positions differ. The route build interns chains on their encoded bytes, so
// each distinct shape is stored once no matter how many routes share it.
type routeRec struct {
	col    int32
	sender int32
	off    int32 // start of this route's (delta, dense) pairs in chainArena
	n      int32 // number of destinations
	dir    int8  // +1 rightward, -1 leftward
}

// routeRecBytes is the in-memory size of one routeRec (4 int32 + int8,
// padded); bytes() uses it so telemetry can report the table footprint.
const routeRecBytes = 20

type routeTable struct {
	routes []routeRec
	// chainArena holds every route's destination chain as interleaved
	// (delta, dense) pairs; routes with identical encodings share one span.
	chainArena []int32
	// Flattened sender index: the routes fed by position p's owned-column
	// slot i (parallel to assign.Owned[p]) are
	//
	//	routeIDs[slotOff[senderBase[p]+i] : slotOff[senderBase[p]+i+1]]
	//
	// replacing the old triple-nested [][][]int32 with three flat arrays.
	routeIDs   []int32
	slotOff    []int32
	senderBase []int32
	// crossR[i] / crossL[i] count the routes whose traffic crosses link
	// (i, i+1) rightward / leftward — i.e. messages per guest step in each
	// direction. Chunks use them to pre-size link queues and boundary
	// outboxes so the steady-state hot path never grows a slice.
	crossR, crossL []int32
	// Every position's dense-store universe (appendUniverse over its base
	// and standby columns), concatenated: position p's is
	// uni[uniOff[p]:uniOff[p+1]]. Chains resolve their dense indexes in it
	// and newChunk builds the knowledge stores over it, so the two always
	// agree, for any chunking of the line.
	uni    []int32
	uniOff []int
}

// universe returns position pos's dense-store universe.
func (rt *routeTable) universe(pos int) []int32 { return rt.uni[rt.uniOff[pos]:rt.uniOff[pos+1]] }

// routeSpan locates the route ids position pos feeds for its owned-column
// slot i (parallel to assign.Owned[pos]): routeIDs[off : off+n].
func (rt *routeTable) routeSpan(pos, slot int) (off, n int32) {
	s := rt.senderBase[pos] + int32(slot)
	return rt.slotOff[s], rt.slotOff[s+1] - rt.slotOff[s]
}

// bytes reports the table's resident footprint: fixed records plus the
// shared arena and the flattened sender index. The universes are the dense
// stores' key space and count there.
func (rt *routeTable) bytes() int64 {
	words := len(rt.chainArena) + len(rt.routeIDs) + len(rt.slotOff) +
		len(rt.senderBase) + len(rt.crossR) + len(rt.crossL)
	return int64(len(rt.routes))*routeRecBytes + int64(words)*4
}

// routeBuilder builds route tables. It owns the table it fills and its
// build scratch, so an Arena that keeps one across runs rebuilds the table
// inside the memory of its earlier builds.
type routeBuilder struct {
	rt       routeTable
	interned map[uint64]int32 // hash of an encoded chain -> its chainArena offset
	enc      []int32          // one chain's encoding
	lasts    []int32          // last destination per route, for countCrossings
	slots    []int32          // sender slot per route, for the flattened index
	fan      []fanDest        // one column's destinations with their senders
	mark     []int32          // per position: col+1 once it is col's holder or destination
	dead     []bool           // per position: excluded from routing
	live     []int            // one column's live holders
}

// fanDest is one destination of a column's values and the holder that
// serves it.
type fanDest struct {
	sender, dest int32
	dir          int8
}

// shell resets the table for assignment a with no routes: the sender index
// sized for it, and every position's universe over its base columns and,
// when extra is non-nil, its standby columns.
func (b *routeBuilder) shell(g guest.Graph, a *assign.Assignment, extra [][]int) *routeTable {
	rt := &b.rt
	*rt = routeTable{
		routes: rt.routes[:0], chainArena: rt.chainArena[:0], routeIDs: rt.routeIDs[:0],
		crossR: rt.crossR[:0], crossL: rt.crossL[:0], uni: rt.uni[:0],
		senderBase: reuse(rt.senderBase, a.HostN+1),
		uniOff:     reuse(rt.uniOff, a.HostN+1),
		slotOff:    rt.slotOff, // resized once the slots are counted
	}
	total := int32(0)
	for p := 0; p < a.HostN; p++ {
		rt.senderBase[p] = total
		total += int32(len(a.Owned[p]))
		rt.uniOff[p] = len(rt.uni)
		var standby []int
		if extra != nil {
			standby = extra[p]
		}
		rt.uni = appendUniverse(rt.uni, g.Neighbors, a.Owned[p], standby)
	}
	rt.senderBase[a.HostN] = total
	rt.uniOff[a.HostN] = len(rt.uni)
	rt.slotOff = reuse(rt.slotOff, int(total)+1)
	clear(rt.slotOff)
	return rt
}

// build derives the multicast routing table from the guest graph and the
// assignment. Hosts in avoid (ascending; crash-stop hosts from a fault
// plan) are excluded from routing entirely: never chosen as senders (static
// failover onto the surviving replicas; the caller guarantees every column
// keeps at least one live holder) and never targeted as destinations (a
// crash-stop host never computes after the crash, so feeding it is wasted
// traffic — and deliveries trailing the last live compute would make the
// engines' message counts diverge). Their positions still relay through
// traffic: the NIC outlives the CPU. An empty avoid list reproduces the
// fault-free table exactly.
//
// extra, when non-nil (adaptive replication), lists per host the standby
// columns provisioned there. Standby hosts join the destination fan-out of
// every column their standby columns depend on — from step 1, dormant or
// not — so an activation needs no route rebuild: the host has been
// receiving the dependency stream all along. Standby replicas are never
// senders (activated standbys serve only their own host).
//
// The table is the builder's own and valid until its next build.
func (b *routeBuilder) build(g guest.Graph, a *assign.Assignment, avoid []int, extra [][]int) *routeTable {
	rt := b.shell(g, a, extra)
	// extraHolders[c] lists the hosts with a standby replica of column c.
	var extraHolders [][]int
	if extra != nil {
		extraHolders = make([][]int, a.Columns)
		for p, cols := range extra {
			for _, col := range cols {
				extraHolders[col] = append(extraHolders[col], p)
			}
		}
	}
	b.dead = reuse(b.dead, a.HostN)
	clear(b.dead)
	for _, h := range avoid {
		b.dead[h] = true
	}
	// liveHolders filters a column's holder list down to live hosts.
	liveHolders := func(col int) []int {
		if len(avoid) == 0 {
			return a.Holders[col]
		}
		b.live = b.live[:0]
		for _, h := range a.Holders[col] {
			if !b.dead[h] {
				b.live = append(b.live, h)
			}
		}
		return b.live
	}

	// senderFor returns the live holder nearest to dest (ties toward the
	// left) using binary search over the sorted holder list.
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

	// intern stores an encoded chain in the arena, returning the offset of
	// an existing identical chain when one was already interned. Chains are
	// keyed by a hash and compared on a hit; a hit whose chain differs is
	// stored again, so a collision costs arena space, never correctness.
	if b.interned == nil {
		b.interned = make(map[uint64]int32)
	}
	clear(b.interned)
	intern := func(enc []int32) int32 {
		key := uint64(14695981039346656037) // FNV-1a over the chain's values
		for _, v := range enc {
			key = (key ^ uint64(uint32(v))) * 1099511628211
		}
		if off, ok := b.interned[key]; ok {
			if end := int(off) + len(enc); end <= len(rt.chainArena) && slices.Equal(rt.chainArena[off:end], enc) {
				return off
			}
		}
		off := int32(len(rt.chainArena))
		rt.chainArena = append(rt.chainArena, enc...)
		b.interned[key] = off
		return off
	}

	b.lasts, b.slots = b.lasts[:0], b.slots[:0]
	b.mark = reuse(b.mark, a.HostN)
	clear(b.mark)
	for col := 0; col < a.Columns; col++ {
		// Destination set: live holders (base or standby) of neighbor
		// columns minus base holders of col, each marked once.
		stamp := int32(col + 1)
		for _, p := range a.Holders[col] {
			b.mark[p] = stamp
		}
		b.fan = b.fan[:0]
		hs := liveHolders(col)
		add := func(ps []int) {
			for _, p := range ps {
				if !b.dead[p] && b.mark[p] != stamp {
					b.mark[p] = stamp
					s := senderFor(hs, p)
					dir := int8(1)
					if p < s {
						dir = -1
					}
					b.fan = append(b.fan, fanDest{sender: int32(s), dest: int32(p), dir: dir})
				}
			}
		}
		for _, nb := range g.Neighbors(col) {
			add(a.Holders[nb])
			if extraHolders != nil {
				add(extraHolders[nb])
			}
		}
		// Deterministic route order: by (sender, dir), each chain in travel
		// order.
		slices.SortFunc(b.fan, func(x, y fanDest) int {
			return cmp.Or(cmp.Compare(x.sender, y.sender), cmp.Compare(x.dir, y.dir),
				cmp.Compare(int32(x.dir)*x.dest, int32(y.dir)*y.dest))
		})
		for i := 0; i < len(b.fan); {
			k := b.fan[i]
			j := i + 1
			for j < len(b.fan) && b.fan[j].sender == k.sender && b.fan[j].dir == k.dir {
				j++
			}
			dests := b.fan[i:j]
			i = j
			// Encode the chain: sender-relative deltas plus dense indexes.
			b.enc = b.enc[:0]
			prev := k.sender
			for _, d := range dests {
				delta := d.dest - prev
				if k.dir < 0 {
					delta = prev - d.dest
				}
				dense := denseIndex(rt.universe(int(d.dest)), int32(col))
				if dense < 0 {
					panic(fmt.Sprintf("sim: route for col %d delivers to pos %d, which holds no neighbor of it", col, d.dest))
				}
				b.enc = append(b.enc, delta, dense)
				prev = d.dest
			}
			rt.routes = append(rt.routes, routeRec{
				col:    int32(col),
				sender: k.sender,
				off:    intern(b.enc),
				n:      int32(len(dests)),
				dir:    k.dir,
			})
			b.lasts = append(b.lasts, dests[len(dests)-1].dest)
			// Attach to the sender's owned-column slot.
			idx := sort.SearchInts(a.Owned[k.sender], col)
			b.slots = append(b.slots, rt.senderBase[k.sender]+int32(idx))
		}
	}
	// Flatten the routes into routeIDs/slotOff by slot, keeping id order
	// within a slot: count each slot's routes, prefix-sum the counts into
	// start offsets, place every id at its slot's cursor, then shift the
	// cursors (each now at its slot's end) back into start offsets.
	off := rt.slotOff
	for _, s := range b.slots {
		off[s+1]++
	}
	for s := 1; s < len(off); s++ {
		off[s] += off[s-1]
	}
	rt.routeIDs = reuse(rt.routeIDs, len(rt.routes))
	for id, s := range b.slots {
		rt.routeIDs[off[s]] = int32(id)
		off[s]++
	}
	copy(off[1:], off)
	off[0] = 0
	rt.countCrossings(a.HostN, b.lasts)
	return rt
}

// countCrossings fills crossR/crossL via difference arrays: a rightward
// route from s whose last destination is L crosses links s..L-1; a leftward
// one crosses links L..s-1 (link i connects positions i and i+1). lasts is
// the per-route last destination, parallel to routes (tracked at build time
// so this pass never decodes a chain).
func (rt *routeTable) countCrossings(hostN int, lasts []int32) {
	if hostN < 2 {
		return
	}
	// Difference arrays in place, then prefix sums over the hostN-1 links.
	diffR, diffL := reuse(rt.crossR, hostN), reuse(rt.crossL, hostN)
	clear(diffR)
	clear(diffL)
	for i := range rt.routes {
		r := &rt.routes[i]
		last := lasts[i]
		if r.dir > 0 {
			diffR[r.sender]++
			diffR[last]--
		} else {
			diffL[last]++
			diffL[r.sender]--
		}
	}
	for i := 1; i < hostN-1; i++ {
		diffR[i] += diffR[i-1]
		diffL[i] += diffL[i-1]
	}
	rt.crossR, rt.crossL = diffR[:hostN-1], diffL[:hostN-1]
}
