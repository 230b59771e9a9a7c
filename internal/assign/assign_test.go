package assign

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/tree"
)

func unitLine(n int) []int {
	d := make([]int, n-1)
	for i := range d {
		d[i] = 1
	}
	return d
}

func TestFromOwnedBasics(t *testing.T) {
	owned := [][]int{{1, 0}, {1, 2}, {3}}
	a, err := FromOwned(3, 4, owned)
	if err != nil {
		t.Fatal(err)
	}
	// An unsorted list is sorted in a copy; the input stays as it was.
	if !slices.Equal(a.Owned[0], []int{0, 1}) || !slices.Equal(owned[0], []int{1, 0}) {
		t.Fatalf("owned %v from input %v", a.Owned[0], owned[0])
	}
	if a.Load() != 2 || a.MaxCopies() != 2 || a.TotalReplicas() != 5 {
		t.Fatalf("%+v", a)
	}
	if !a.Holds(0, 1) || a.Holds(2, 0) {
		t.Fatal("Holds wrong")
	}
	if a.UsedHosts() != 3 {
		t.Fatal("UsedHosts")
	}
	if a.Redundancy() != 5.0/4.0 {
		t.Fatalf("redundancy %f", a.Redundancy())
	}
}

func TestFromOwnedErrors(t *testing.T) {
	if _, err := FromOwned(2, 3, [][]int{{0}}); err == nil {
		t.Fatal("wrong host count accepted")
	}
	if _, err := FromOwned(1, 2, [][]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := FromOwned(1, 2, [][]int{{0, 0}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := FromOwned(1, 2, [][]int{{1, 0, 1}}); err == nil {
		t.Fatal("duplicate column in an unsorted list accepted")
	}
	if _, err := FromOwned(1, 2, [][]int{{0}}); err == nil {
		t.Fatal("uncovered column accepted")
	}
}

func TestStripRedundancy(t *testing.T) {
	a, err := FromOwned(3, 2, [][]int{{0, 1}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	s := a.StripRedundancy()
	if s.MaxCopies() != 1 || s.TotalReplicas() != 2 {
		t.Fatalf("stripped: %+v", s)
	}
	// keeps the lowest-id holder
	if !s.Holds(0, 0) || !s.Holds(0, 1) {
		t.Fatal("wrong holders kept")
	}
	// original unchanged
	if a.MaxCopies() != 2 {
		t.Fatal("original mutated")
	}
}

func TestOverlapAssignmentLoadOne(t *testing.T) {
	tr := tree.Build(unitLine(256), 4)
	a, err := Overlap(tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Columns != tr.GuestSize() {
		t.Fatalf("columns %d != guest size %d", a.Columns, tr.GuestSize())
	}
	if a.Load() != 1 {
		t.Fatalf("load %d != 1 (Theorem 2)", a.Load())
	}
	// every live processor holds exactly one db; dead hold none
	for p, cols := range a.Owned {
		if tr.Alive[p] && len(cols) != 1 {
			t.Fatalf("live proc %d owns %d", p, len(cols))
		}
		if !tr.Alive[p] && len(cols) != 0 {
			t.Fatalf("dead proc %d owns %d", p, len(cols))
		}
	}
	// holders of each column must be contained in a window (locality)
	for c, hs := range a.Holders {
		if len(hs) < 1 {
			t.Fatalf("column %d uncovered", c)
		}
	}
}

func TestOverlapRedundancyMatchesTreeOverlaps(t *testing.T) {
	tr := tree.Build(unitLine(128), 4)
	a, err := Overlap(tr)
	if err != nil {
		t.Fatal(err)
	}
	// total replicas = live processors (each live leaf holds one unit)
	if a.TotalReplicas() != tr.LiveCount() {
		t.Fatalf("replicas %d != live %d", a.TotalReplicas(), tr.LiveCount())
	}
	if a.MaxCopies() < 2 {
		t.Fatal("expected some column with multiple copies (overlaps)")
	}
}

func TestOverlapBlocked(t *testing.T) {
	tr := tree.Build(unitLine(128), 4)
	for _, beta := range []int{1, 2, 5} {
		a, err := OverlapBlocked(tr, beta)
		if err != nil {
			t.Fatal(err)
		}
		if a.Columns != tr.GuestSize()*beta {
			t.Fatalf("beta %d: columns %d", beta, a.Columns)
		}
		if a.Load() != beta {
			t.Fatalf("beta %d: load %d", beta, a.Load())
		}
		// blocks are contiguous per processor
		for p, cols := range a.Owned {
			for i := 1; i < len(cols); i++ {
				if cols[i] != cols[i-1]+1 {
					t.Fatalf("proc %d block not contiguous: %v", p, cols)
				}
			}
		}
	}
	if _, err := OverlapBlocked(tr, 0); err == nil {
		t.Fatal("beta 0 accepted")
	}
}

func TestTwoLevel(t *testing.T) {
	tr := tree.Build(unitLine(128), 4)
	beta, s := 3, 4
	a, err := TwoLevel(tr, beta, s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Columns != tr.GuestSize()*beta*s {
		t.Fatalf("columns %d", a.Columns)
	}
	// load is at most (beta+2)*s per unit
	if a.Load() > (beta+2)*s {
		t.Fatalf("load %d > %d", a.Load(), (beta+2)*s)
	}
	// interior columns should have at least 2 copies (theorem 4 margins)
	multi := 0
	for _, hs := range a.Holders {
		if len(hs) >= 2 {
			multi++
		}
	}
	if multi*2 < a.Columns {
		t.Fatalf("only %d/%d columns replicated", multi, a.Columns)
	}
	if _, err := TwoLevel(tr, 0, 1); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestUniformBlocks(t *testing.T) {
	a, err := UniformBlocks(8, 4, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Columns != 32 {
		t.Fatalf("columns %d", a.Columns)
	}
	// every interior column has exactly 3 holders (width 3s, stride s)
	for c := 8; c < 24; c++ {
		if len(a.Holders[c]) != 3 {
			t.Fatalf("col %d has %d holders", c, len(a.Holders[c]))
		}
	}
	// processor 0 owns only its clipped range
	if a.Owned[0][0] != 0 || len(a.Owned[0]) != 4 {
		t.Fatalf("proc 0 owns %v", a.Owned[0])
	}
	if _, err := UniformBlocks(0, 4, 0, 0); err == nil {
		t.Fatal("bad host count accepted")
	}
}

func TestSingleCopyBlocks(t *testing.T) {
	a, err := SingleCopyBlocks(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxCopies() != 1 {
		t.Fatal("not single copy")
	}
	total := 0
	for _, cols := range a.Owned {
		total += len(cols)
	}
	if total != 10 {
		t.Fatalf("replicas %d", total)
	}
	// blocks contiguous and ordered
	last := -1
	for p := 0; p < 4; p++ {
		for _, c := range a.Owned[p] {
			if c != last+1 {
				t.Fatalf("columns out of order at proc %d", p)
			}
			last = c
		}
	}
}

func TestSingleCopyOnHostsAndContraction(t *testing.T) {
	a, err := SingleCopyOnHosts(10, 6, []int{1, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.UsedHosts() != 3 || a.MaxCopies() != 1 {
		t.Fatalf("%+v", a)
	}
	if _, err := SingleCopyOnHosts(10, 6, nil); err == nil {
		t.Fatal("empty hosts accepted")
	}
	if _, err := SingleCopyOnHosts(10, 6, []int{11}); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	c, err := Contraction(16, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.UsedHosts() != 4 {
		t.Fatalf("contraction used %d", c.UsedHosts())
	}
	for p, cols := range c.Owned {
		if len(cols) > 0 && p%4 != 0 {
			t.Fatalf("contraction used proc %d", p)
		}
	}
}

func TestTreeUnitsExported(t *testing.T) {
	tr := tree.Build(unitLine(64), 4)
	units, n := TreeUnits(tr)
	if n != tr.GuestSize() {
		t.Fatalf("units %d != guest %d", n, tr.GuestSize())
	}
	// every unit 0..n-1 appears at least once; live leaves have 1 unit
	seen := make([]bool, n)
	for p, us := range units {
		if tr.Alive[p] && len(us) != 1 {
			t.Fatalf("live proc %d has %d units", p, len(us))
		}
		for _, u := range us {
			if u < 0 || u >= n {
				t.Fatalf("unit %d out of range", u)
			}
			seen[u] = true
		}
	}
	for u, ok := range seen {
		if !ok {
			t.Fatalf("unit %d unassigned", u)
		}
	}
}

// Property: the OVERLAP assignment over random hosts always covers every
// column, keeps load one, and its holder sets are sorted windows.
func TestOverlapPropertyRandomHosts(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := 64 << (sizeSel % 3)
		r := rand.New(rand.NewSource(seed))
		delays := make([]int, n-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(1<<uint(r.Intn(20)))
		}
		tr := tree.Build(delays, 4)
		if tr.GuestSize() == 0 {
			return true
		}
		a, err := Overlap(tr)
		if err != nil {
			return false
		}
		return a.Validate() == nil && a.Load() == 1 && a.Columns == tr.GuestSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapHoldersWithinIntervals(t *testing.T) {
	// all holders of adjacent columns must be near each other: the
	// maximum holder-position gap between column c and c+1 bounds the
	// communication distance OVERLAP relies on.
	g := network.Line(256, network.UniformDelay{Lo: 1, Hi: 20}, 77)
	delays := make([]int, g.NumLinks())
	for i, e := range g.Edges() {
		delays[i] = e.Delay
	}
	tr := tree.Build(delays, 4)
	a, err := Overlap(tr)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c+1 < a.Columns; c++ {
		lo := a.Holders[c+1][0] - a.Holders[c][len(a.Holders[c])-1]
		if lo > 256/2 {
			t.Fatalf("adjacent columns %d,%d placed %d apart", c, c+1, lo)
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	a, err := FromOwned(3, 2, [][]int{{0, 1}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	// MixDB is 16 bytes; 4 replicas total
	if got := a.MemoryBytes(nil, 1); got != 4*16 {
		t.Fatalf("mix memory %d", got)
	}
	kv := guest.KVFactory(10)
	want := int64(4) * int64(kv(0, 1).Size())
	if got := a.MemoryBytes(kv, 1); got != want {
		t.Fatalf("kv memory %d want %d", got, want)
	}
}

// Property: the TwoLevel assignment over random hosts always covers every
// column with load at most (beta+2)*s.
func TestTwoLevelPropertyRandomHosts(t *testing.T) {
	f := func(seed int64, betaSel, sSel uint8) bool {
		beta := 1 + int(betaSel%4)
		s := 1 + int(sSel%5)
		r := rand.New(rand.NewSource(seed))
		n := 64
		delays := make([]int, n-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(1<<uint(r.Intn(12)))
		}
		tr := tree.Build(delays, 4)
		if tr.GuestSize() == 0 {
			return true
		}
		a, err := TwoLevel(tr, beta, s)
		if err != nil {
			return false
		}
		return a.Validate() == nil && a.Load() <= (beta+2)*s &&
			a.Columns == tr.GuestSize()*beta*s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedBlocks(t *testing.T) {
	for _, tc := range []struct{ n, m, copies int }{
		{8, 16, 4}, {8, 16, 1}, {5, 7, 3}, {4, 4, 4}, {16, 8, 2},
	} {
		a, err := ReplicatedBlocks(tc.n, tc.m, tc.copies)
		if err != nil {
			t.Fatalf("ReplicatedBlocks(%d,%d,%d): %v", tc.n, tc.m, tc.copies, err)
		}
		for c, hs := range a.Holders {
			if len(hs) != tc.copies {
				t.Fatalf("n=%d m=%d copies=%d: column %d has %d holders",
					tc.n, tc.m, tc.copies, c, len(hs))
			}
			// Holders are consecutive processors (locality).
			for i := 1; i < len(hs); i++ {
				if hs[i] != hs[i-1]+1 {
					t.Fatalf("column %d holders not consecutive: %v", c, hs)
				}
			}
		}
	}
	// copies=1 degenerates to the single-copy blocks.
	a, _ := ReplicatedBlocks(4, 10, 1)
	b, _ := SingleCopyBlocks(4, 10)
	for p := range a.Owned {
		if len(a.Owned[p]) != len(b.Owned[p]) {
			t.Fatalf("copies=1 differs from SingleCopyBlocks at proc %d", p)
		}
	}
	if _, err := ReplicatedBlocks(4, 8, 5); err == nil {
		t.Fatal("copies > hostN accepted")
	}
	if _, err := ReplicatedBlocks(4, 8, 0); err == nil {
		t.Fatal("copies = 0 accepted")
	}
}
