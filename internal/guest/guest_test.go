package guest

import (
	"testing"
	"testing/quick"
)

func TestLinearArrayNeighbors(t *testing.T) {
	la := NewLinearArray(5)
	cases := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	for i, want := range cases {
		got := la.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("node %d: %v want %v", i, got, want)
		}
		// The lists share one backing array: an append must not reach
		// the next node's.
		if cap(got) != len(got) {
			t.Fatalf("node %d: cap %d beyond len %d", i, cap(got), len(got))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d: %v want %v", i, got, want)
			}
		}
	}
	if NewLinearArray(1).Neighbors(0) != nil {
		t.Fatal("single node has no neighbors")
	}
	if MaxDegree(la) != 2 {
		t.Fatalf("max degree %d", MaxDegree(la))
	}
}

func TestRingNeighbors(t *testing.T) {
	r := NewRing(5)
	if ns := r.Neighbors(0); ns[0] != 1 || ns[1] != 4 {
		t.Fatalf("ring node 0 neighbors %v", ns)
	}
	if ns := r.Neighbors(3); ns[0] != 2 || ns[1] != 4 {
		t.Fatalf("ring node 3 neighbors %v", ns)
	}
	for i := 0; i < 5; i++ {
		if len(r.Neighbors(i)) != 2 {
			t.Fatalf("ring node %d degree != 2", i)
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	m := NewMesh(3, 4)
	if m.NumNodes() != 12 || m.Rows() != 3 || m.Cols() != 4 {
		t.Fatal("mesh dims")
	}
	// corner
	if ns := m.Neighbors(0); len(ns) != 2 || ns[0] != 1 || ns[1] != 4 {
		t.Fatalf("corner neighbors %v", ns)
	}
	// interior (1,1) = 5: up 1, left 4, right 6, down 9
	want := []int{1, 4, 6, 9}
	got := m.Neighbors(5)
	if len(got) != 4 {
		t.Fatalf("interior neighbors %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interior neighbors %v want %v", got, want)
		}
	}
}

func TestNeighborsSortedProperty(t *testing.T) {
	graphs := []Graph{NewLinearArray(9), NewRing(8), NewMesh(5, 7),
		NewCustom("x", [][]int{{3, 1, 2}, {0}, {0}, {0, 0, 5, -1, 99}})}
	for _, g := range graphs {
		for i := 0; i < g.NumNodes(); i++ {
			ns := g.Neighbors(i)
			for j := 1; j < len(ns); j++ {
				if ns[j-1] >= ns[j] {
					t.Fatalf("%s node %d neighbors not strictly sorted: %v", g.Name(), i, ns)
				}
			}
			for _, v := range ns {
				if v == i || v < 0 || v >= g.NumNodes() {
					t.Fatalf("%s node %d bad neighbor %d", g.Name(), i, v)
				}
			}
		}
	}
}

func TestCustomDedupAndFilter(t *testing.T) {
	c := NewCustom("c", [][]int{{1, 1, 2, 0, -5, 42}, {0}, {0}})
	ns := c.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("custom neighbors %v", ns)
	}
}

func TestMixDBApplyAndClone(t *testing.T) {
	db := NewMixDB(3, 7)
	if db.Node() != 3 || db.Version() != 0 {
		t.Fatal("fresh db")
	}
	d0 := db.Digest()
	db.Apply(Update{Node: 3, Step: 1, Val: 100})
	if db.Version() != 1 || db.Digest() == d0 {
		t.Fatal("apply did not change state")
	}
	clone := db.Clone()
	db.Apply(Update{Node: 3, Step: 2, Val: 200})
	if clone.Version() != 1 {
		t.Fatal("clone shares state")
	}
	clone.Apply(Update{Node: 3, Step: 2, Val: 200})
	if clone.Digest() != db.Digest() {
		t.Fatal("same updates, different digests")
	}
	if db.Size() <= 0 {
		t.Fatal("size must be positive")
	}
}

func TestMixDBOrderSensitive(t *testing.T) {
	a, b := NewMixDB(0, 1), NewMixDB(0, 1)
	a.Apply(Update{Node: 0, Step: 1, Val: 5})
	a.Apply(Update{Node: 0, Step: 2, Val: 9})
	b.Apply(Update{Node: 0, Step: 1, Val: 9})
	b.Apply(Update{Node: 0, Step: 2, Val: 5})
	if a.Digest() == b.Digest() {
		t.Fatal("digest not order-sensitive")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestDatabasePanics(t *testing.T) {
	for name, factory := range map[string]Factory{"mix": NewMixDB, "kv": KVFactory(16)} {
		db := factory(2, 1)
		mustPanic(t, name+" wrong node", func() {
			db.Apply(Update{Node: 3, Step: 1, Val: 1})
		})
		mustPanic(t, name+" skipped step", func() {
			db.Apply(Update{Node: 2, Step: 2, Val: 1})
		})
		db.Apply(Update{Node: 2, Step: 1, Val: 1})
		mustPanic(t, name+" replayed step", func() {
			db.Apply(Update{Node: 2, Step: 1, Val: 1})
		})
	}
}

func TestKVDBBehaviour(t *testing.T) {
	f := KVFactory(8)
	a := f(0, 3).(*KVDB)
	b := f(0, 3).(*KVDB)
	if a.Digest() != b.Digest() {
		t.Fatal("same factory+seed must give equal initial digests")
	}
	if f(1, 3).Digest() == a.Digest() {
		t.Fatal("different nodes must differ")
	}
	if a.NumCells() != 8 {
		t.Fatalf("cells %d", a.NumCells())
	}
	d0 := a.Digest()
	a.Apply(Update{Node: 0, Step: 1, Val: 13})
	if a.Digest() == d0 {
		t.Fatal("apply did not change digest")
	}
	idx := int(uint64(13) % 8)
	if a.Cell(idx) == b.Cell(idx) {
		t.Fatal("update did not write the chosen cell")
	}
	// clone independence
	c := a.Clone()
	a.Apply(Update{Node: 0, Step: 2, Val: 99})
	if c.Version() != 1 {
		t.Fatal("clone shares version")
	}
	if a.Size() <= 8*8 {
		t.Fatalf("size %d too small", a.Size())
	}
	if KVFactory(0)(0, 1).(*KVDB).NumCells() != 1 {
		t.Fatal("cells clamp")
	}
}

func TestComputeValueOrderSensitive(t *testing.T) {
	n := []uint64{1, 2}
	m := []uint64{2, 1}
	if ComputeValue(7, 3, 4, 9, n) == ComputeValue(7, 3, 4, 9, m) {
		t.Fatal("neighbor order must matter")
	}
	if ComputeValue(7, 3, 4, 9, n) == ComputeValue(8, 3, 4, 9, n) {
		t.Fatal("db digest must matter")
	}
	if ComputeValue(7, 3, 4, 9, n) == ComputeValue(7, 2, 4, 9, n) {
		t.Fatal("node must matter")
	}
	if ComputeValue(7, 3, 4, 9, n) == ComputeValue(7, 3, 5, 9, n) {
		t.Fatal("step must matter")
	}
}

func TestInitValueSeedDependence(t *testing.T) {
	if InitValue(0, 1) == InitValue(0, 2) {
		t.Fatal("seed must matter")
	}
	if InitValue(0, 1) == InitValue(1, 1) {
		t.Fatal("node must matter")
	}
	if InitValue(5, 9) != InitValue(5, 9) {
		t.Fatal("must be deterministic")
	}
}

func TestMix64IsBijectivelyScrambling(t *testing.T) {
	// sanity: no collisions among a decent sample (splitmix64 is a
	// bijection, so none can occur; this guards the constants)
	seen := make(map[uint64]bool, 10000)
	for i := uint64(0); i < 10000; i++ {
		v := mix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
}

func TestReferenceRunMatchesDigest(t *testing.T) {
	spec := Spec{Graph: NewLinearArray(17), Steps: 23, Seed: 5}
	full, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	light, err := RunDigest(spec)
	if err != nil {
		t.Fatal(err)
	}
	if full.Work != light.Work || full.Work != 17*23 {
		t.Fatalf("work %d vs %d", full.Work, light.Work)
	}
	for i := 0; i < 17; i++ {
		if full.Values[23][i] != light.LastRow[i] {
			t.Fatalf("last row mismatch at %d", i)
		}
		if full.FinalDigests[i] != light.FinalDigests[i] {
			t.Fatalf("digest mismatch at %d", i)
		}
	}
	if full.Value(3, 0) != InitValue(3, 5) {
		t.Fatal("row 0 must be initial values")
	}
}

func TestReferenceAcrossGraphs(t *testing.T) {
	for _, g := range []Graph{NewRing(9), NewMesh(4, 5), NewLinearArray(3)} {
		spec := Spec{Graph: g, Steps: 9, Seed: 2}
		a, err := RunDigest(spec)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		b, err := RunDigest(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Checksum != b.Checksum {
			t.Fatalf("%s: nondeterministic", g.Name())
		}
		c, err := RunDigest(Spec{Graph: g, Steps: 9, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if a.Checksum == c.Checksum {
			t.Fatalf("%s: seed does not affect result", g.Name())
		}
	}
}

func TestReferenceKVDatabase(t *testing.T) {
	spec := Spec{Graph: NewLinearArray(6), Steps: 8, Seed: 4, NewDatabase: KVFactory(32)}
	a, err := RunDigest(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.NewDatabase = nil // MixDB
	b, err := RunDigest(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum == b.Checksum {
		t.Fatal("database implementation must influence values (digests differ)")
	}
}

func TestReferenceCustomOp(t *testing.T) {
	// op = max of self and neighbors: values stay constant at the global
	// max once propagated.
	op := func(_ uint64, _ int, _ int, self uint64, neighbors []uint64) uint64 {
		best := self
		for _, v := range neighbors {
			if v > best {
				best = v
			}
		}
		return best
	}
	init := func(node int, _ int64) uint64 { return uint64(node * 10) }
	m := 9
	res, err := Run(Spec{Graph: NewLinearArray(m), Steps: m, Seed: 0, Op: op, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		if got := res.Value(i, m); got != uint64((m-1)*10) {
			t.Fatalf("max did not propagate to node %d: %d", i, got)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("nil graph must fail")
	}
	if err := (Spec{Graph: NewLinearArray(2), Steps: -1}).Validate(); err == nil {
		t.Fatal("negative steps must fail")
	}
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("Run must validate")
	}
	if _, err := RunDigest(Spec{Steps: -1, Graph: NewLinearArray(1)}); err == nil {
		t.Fatal("RunDigest must validate")
	}
}

func TestZeroStepRun(t *testing.T) {
	res, err := Run(Spec{Graph: NewLinearArray(4), Steps: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work != 0 || len(res.Values) != 1 {
		t.Fatalf("zero-step run: %+v", res)
	}
}

func TestPebbleDelta(t *testing.T) {
	p := Pebble{Node: 2, Step: 5, Value: 77}
	d := p.Delta()
	if d.Node != 2 || d.Step != 5 || d.Val != 77 {
		t.Fatalf("delta %+v", d)
	}
}

// Property: replaying a database's update log on a clone of its initial
// state reproduces the digest (the engine relies on this for replicas).
func TestDatabaseReplayProperty(t *testing.T) {
	f := func(vals []uint64, node uint8, seed int64) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		orig := NewMixDB(int(node), seed)
		replica := orig.Clone()
		for i, v := range vals {
			orig.Apply(Update{Node: int(node), Step: i + 1, Val: v})
		}
		for i, v := range vals {
			replica.Apply(Update{Node: int(node), Step: i + 1, Val: v})
		}
		return orig.Digest() == replica.Digest() && orig.Version() == replica.Version()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNullDB(t *testing.T) {
	db := NewNullDB(4, 9)
	if db.Digest() != 0 || db.Size() != 0 || db.Node() != 4 {
		t.Fatal("null db basics")
	}
	db.Apply(Update{Node: 4, Step: 1, Val: 123})
	if db.Digest() != 0 || db.Version() != 1 {
		t.Fatal("null db must stay stateless but count versions")
	}
	mustPanic(t, "null wrong node", func() { db.Apply(Update{Node: 5, Step: 2}) })
	mustPanic(t, "null wrong step", func() { db.Apply(Update{Node: 4, Step: 5}) })
	c := db.Clone()
	db.Apply(Update{Node: 4, Step: 2})
	if c.Version() != 1 {
		t.Fatal("clone shares version")
	}
	// with NullDB, values are memoryless: two specs differing only in
	// database implementation give different results, but NullDB vs
	// NullDB with different seeds differ only through Init
	a, err := RunDigest(Spec{Graph: NewLinearArray(5), Steps: 4, Seed: 1, NewDatabase: NewNullDB})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDigest(Spec{Graph: NewLinearArray(5), Steps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.LastRow[2] == b.LastRow[2] {
		t.Fatal("null and mix databases should produce different values")
	}
}

func TestRunDigestParallelMatchesSequential(t *testing.T) {
	for _, g := range []Graph{NewLinearArray(700), NewRing(512), NewMesh(20, 30)} {
		for _, op := range []Op{nil, func(db uint64, n, s int, self uint64, ns []uint64) uint64 {
			v := db + self
			for _, x := range ns {
				v ^= x
			}
			return v
		}} {
			spec := Spec{Graph: g, Steps: 11, Seed: 3, Op: op}
			seq, err := RunDigest(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 3, 7} {
				par, err := RunDigestParallel(spec, workers)
				if err != nil {
					t.Fatal(err)
				}
				if par.Checksum != seq.Checksum {
					t.Fatalf("%s workers=%d: checksum mismatch", g.Name(), workers)
				}
			}
		}
	}
	// small inputs fall back to sequential
	small := Spec{Graph: NewLinearArray(5), Steps: 3, Seed: 1}
	a, _ := RunDigest(small)
	b, err := RunDigestParallel(small, 4)
	if err != nil || a.Checksum != b.Checksum {
		t.Fatal("small-input fallback broken")
	}
	if _, err := RunDigestParallel(Spec{}, 2); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
