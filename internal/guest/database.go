package guest

import "fmt"

// Update is the change a single pebble computation makes to its database.
// Pebbles carry updates through the host network; databases themselves never
// move (Section 2: "a pebble does not contain a snapshot of the whole
// database but only the changes incurred by one computation").
type Update struct {
	Node int    // guest processor whose database is updated
	Step int    // guest time step that produced the update (version)
	Val  uint64 // the pebble value; databases fold it into their state
}

// Database is the local memory of one guest processor in the database model.
//
// A database has a version (the number of updates applied so far, i.e. the
// guest step it has been advanced to) and a digest summarising its entire
// state. Updates must be applied strictly in step order: computing pebble
// (i, t) requires the database at version t-1, and afterwards the update for
// step t is applied. Implementations must make the digest order-sensitive so
// that out-of-order application is detectable.
type Database interface {
	// Node reports which guest processor's database this is (a replica
	// keeps the original's node id).
	Node() int
	// Version reports the number of updates applied.
	Version() int
	// Digest summarises the current state. Two replicas that have applied
	// the same updates in the same order have equal digests.
	Digest() uint64
	// Apply folds one update into the state. It panics if u.Node differs
	// from Node() or u.Step != Version()+1 — both indicate a simulation
	// scheduling bug, which must not be silently absorbed.
	Apply(u Update)
	// Clone returns an independent copy. The paper allows copying the
	// *initial* contents of a database before the computation begins;
	// hosts use Clone at assignment time only.
	Clone() Database
	// Size reports an abstract size in bytes, used to account for the
	// memory cost of replication (load experiments).
	Size() int
}

// Factory creates the initial database for a guest node. All replicas of a
// node's database are created through the same factory and are identical.
type Factory func(node int, seed int64) Database

// MixDB is the fast database implementation: its entire state is a 64-bit
// running digest. It exercises exactly the properties the theorems use
// (order-sensitive state, pebble-sized updates) at negligible cost, so the
// big parameter sweeps use it.
type MixDB struct {
	node    int
	version int
	state   uint64
}

// NewMixDB is a Factory producing MixDB databases.
func NewMixDB(node int, seed int64) Database {
	d := new(MixDB)
	d.Reset(node, seed)
	return d
}

// Reset makes d the initial database NewMixDB(node, seed) returns, in
// place, so callers that hold many replicas can keep them in one slice.
func (d *MixDB) Reset(node int, seed int64) {
	*d = MixDB{node: node, state: initDigest(node, seed)}
}

// Node implements Database.
func (d *MixDB) Node() int { return d.node }

// Version implements Database.
func (d *MixDB) Version() int { return d.version }

// Digest implements Database.
func (d *MixDB) Digest() uint64 { return d.state }

// Apply implements Database.
func (d *MixDB) Apply(u Update) {
	d.checkUpdate(u)
	d.state = combine(d.state, u.Val)
	d.version++
}

func (d *MixDB) checkUpdate(u Update) {
	if u.Node != d.node {
		panic(fmt.Sprintf("guest: update for node %d applied to database of node %d", u.Node, d.node))
	}
	if u.Step != d.version+1 {
		panic(fmt.Sprintf("guest: out-of-order update step %d on database of node %d at version %d",
			u.Step, d.node, d.version))
	}
}

// Clone implements Database.
func (d *MixDB) Clone() Database {
	c := *d
	return &c
}

// Size implements Database.
func (d *MixDB) Size() int { return 16 }

// NullDB is the dataflow-model database: there is none. Its digest is
// constant and updates only advance the version, so pebble values depend
// solely on the dependency pebbles — the memoryless model of [2] (Andrews,
// Leighton, Metaxas, Zhang, STOC 1996) that this paper generalizes. With
// NullDB, any processor holding the dependency values could compute a
// pebble; package dataflow exploits exactly that freedom.
type NullDB struct {
	node    int
	version int
}

// NewNullDB is a Factory producing NullDB databases.
func NewNullDB(node int, _ int64) Database {
	return &NullDB{node: node}
}

// Node implements Database.
func (d *NullDB) Node() int { return d.node }

// Version implements Database.
func (d *NullDB) Version() int { return d.version }

// Digest implements Database. It is constant: the model is memoryless.
func (d *NullDB) Digest() uint64 { return 0 }

// Apply implements Database; it validates ordering (the engines still
// schedule per column) but stores nothing.
func (d *NullDB) Apply(u Update) {
	if u.Node != d.node {
		panic(fmt.Sprintf("guest: update for node %d applied to database of node %d", u.Node, d.node))
	}
	if u.Step != d.version+1 {
		panic(fmt.Sprintf("guest: out-of-order update step %d on database of node %d at version %d",
			u.Step, d.node, d.version))
	}
	d.version++
}

// Clone implements Database.
func (d *NullDB) Clone() Database {
	c := *d
	return &c
}

// Size implements Database.
func (d *NullDB) Size() int { return 0 }

// KVDB is a key-value store database: a realistic "large local memory". Each
// update writes one cell chosen by the update value; the digest is maintained
// incrementally. It demonstrates that the simulation machinery carries real
// state, and the heavier clone cost surfaces in the load experiments.
type KVDB struct {
	node    int
	version int
	cells   []uint64
	digest  uint64
}

// KVFactory returns a Factory producing KVDB databases with the given number
// of cells each.
func KVFactory(cells int) Factory {
	if cells < 1 {
		cells = 1
	}
	return func(node int, seed int64) Database {
		db := &KVDB{node: node, cells: make([]uint64, cells)}
		h := initDigest(node, seed)
		for i := range db.cells {
			h = mix64(h + uint64(i)*goldenGamma)
			db.cells[i] = h
		}
		db.recomputeDigest()
		return db
	}
}

// Node implements Database.
func (d *KVDB) Node() int { return d.node }

// Version implements Database.
func (d *KVDB) Version() int { return d.version }

// Digest implements Database.
func (d *KVDB) Digest() uint64 { return d.digest }

// Apply implements Database.
func (d *KVDB) Apply(u Update) {
	if u.Node != d.node {
		panic(fmt.Sprintf("guest: update for node %d applied to database of node %d", u.Node, d.node))
	}
	if u.Step != d.version+1 {
		panic(fmt.Sprintf("guest: out-of-order update step %d on database of node %d at version %d",
			u.Step, d.node, d.version))
	}
	idx := int(u.Val % uint64(len(d.cells)))
	// Fold the old cell into the new value so the write is order-sensitive,
	// then refresh the incremental digest.
	old := d.cells[idx]
	d.cells[idx] = combine(old, u.Val)
	d.digest = combine(d.digest, d.cells[idx]^uint64(idx))
	d.version++
}

// Clone implements Database.
func (d *KVDB) Clone() Database {
	c := &KVDB{node: d.node, version: d.version, digest: d.digest}
	c.cells = append([]uint64(nil), d.cells...)
	return c
}

// Size implements Database.
func (d *KVDB) Size() int { return 8*len(d.cells) + 24 }

func (d *KVDB) recomputeDigest() {
	h := uint64(0x243f6a8885a308d3)
	for i, v := range d.cells {
		h = combine(h, v^uint64(i))
	}
	d.digest = h
}

// Cell reads cell i; examples use it to inspect final state.
func (d *KVDB) Cell(i int) uint64 { return d.cells[i] }

// NumCells reports the number of cells.
func (d *KVDB) NumCells() int { return len(d.cells) }
