// Package assign constructs and validates database assignments: which host
// workstation holds a replica of which guest database (Section 2: "Before
// the simulation starts, processors p_1..p_n of H decide which databases to
// copy"). A host processor can only ever compute pebbles in the columns it
// holds, so the assignment fixes both the redundancy structure and the
// communication pattern of a simulation.
//
// The package provides the paper's assignments — the load-one OVERLAP
// assignment driven by the interval tree (Section 3.2), the work-efficient
// blocked variant (Section 3.3), the Theorem 4 uniform block ranges, and the
// flattened Theorem 5 two-level composition — plus the baselines used for
// comparison: single-copy assignments (Theorem 9 regime), redundancy
// stripping (the ablation showing redundant computation is necessary), and
// the contraction baseline that preserves efficiency by using only n/d_max
// host processors.
package assign

import (
	"fmt"
	"slices"
	"sort"

	"latencyhide/internal/guest"
	"latencyhide/internal/tree"
)

// Assignment maps guest columns (database ids) to the host processors that
// hold replicas. Both directions are kept sorted.
type Assignment struct {
	HostN   int
	Columns int
	// Owned[p] lists the guest columns p holds, ascending.
	Owned [][]int
	// Holders[i] lists the host processors holding column i, ascending.
	Holders [][]int
}

// FromOwned builds an assignment from per-processor column lists, copying
// each list (owned is left as it is), sorting the copies that are not
// already sorted and validating as it goes.
func FromOwned(hostN, columns int, owned [][]int) (*Assignment, error) {
	if len(owned) != hostN {
		return nil, fmt.Errorf("assign: owned has %d entries for %d hosts", len(owned), hostN)
	}
	a := &Assignment{HostN: hostN, Columns: columns, Owned: make([][]int, hostN)}
	a.Holders = make([][]int, columns)
	for p, cols := range owned {
		cs := append([]int(nil), cols...)
		if !slices.IsSorted(cs) {
			slices.Sort(cs)
		}
		for i, c := range cs {
			if c < 0 || c >= columns {
				return nil, fmt.Errorf("assign: host %d owns column %d out of range [0,%d)", p, c, columns)
			}
			if i > 0 && cs[i-1] == c {
				return nil, fmt.Errorf("assign: host %d owns column %d twice", p, c)
			}
			a.Holders[c] = append(a.Holders[c], p)
		}
		a.Owned[p] = cs
	}
	return a, a.Validate()
}

// Validate checks that every column has at least one holder and that the two
// index directions agree.
func (a *Assignment) Validate() error {
	for c, hs := range a.Holders {
		if len(hs) == 0 {
			return fmt.Errorf("assign: column %d has no holder", c)
		}
		for i := 1; i < len(hs); i++ {
			if hs[i-1] >= hs[i] {
				return fmt.Errorf("assign: holders of column %d not strictly sorted", c)
			}
		}
	}
	count := 0
	for _, cols := range a.Owned {
		count += len(cols)
	}
	total := 0
	for _, hs := range a.Holders {
		total += len(hs)
	}
	if count != total {
		return fmt.Errorf("assign: owned total %d != holders total %d", count, total)
	}
	return nil
}

// Load is the maximum number of databases any host processor replicates
// (the paper's "load").
func (a *Assignment) Load() int {
	best := 0
	for _, cols := range a.Owned {
		if len(cols) > best {
			best = len(cols)
		}
	}
	return best
}

// MaxCopies is the maximum number of replicas any single database has.
func (a *Assignment) MaxCopies() int {
	best := 0
	for _, hs := range a.Holders {
		if len(hs) > best {
			best = len(hs)
		}
	}
	return best
}

// TotalReplicas is the total number of database replicas across the host.
func (a *Assignment) TotalReplicas() int {
	total := 0
	for _, hs := range a.Holders {
		total += len(hs)
	}
	return total
}

// Redundancy is TotalReplicas / Columns: 1 means no redundant computation.
func (a *Assignment) Redundancy() float64 {
	if a.Columns == 0 {
		return 0
	}
	return float64(a.TotalReplicas()) / float64(a.Columns)
}

// UsedHosts reports how many host processors hold at least one replica.
func (a *Assignment) UsedHosts() int {
	c := 0
	for _, cols := range a.Owned {
		if len(cols) > 0 {
			c++
		}
	}
	return c
}

// MemoryBytes estimates the total replica memory across the host for the
// given database factory: the paper's load bound is per processor, this is
// the aggregate cost of the redundancy ("memory is expensive").
func (a *Assignment) MemoryBytes(f guest.Factory, seed int64) int64 {
	if f == nil {
		f = guest.NewMixDB
	}
	// databases of one column are identical in size; sample per column
	var total int64
	for c, hs := range a.Holders {
		if len(hs) == 0 {
			continue
		}
		total += int64(f(c, seed).Size()) * int64(len(hs))
	}
	return total
}

// Holds reports whether host p holds column c.
func (a *Assignment) Holds(p, c int) bool {
	cols := a.Owned[p]
	i := sort.SearchInts(cols, c)
	return i < len(cols) && cols[i] == c
}

// StripRedundancy returns a copy of the assignment where every column keeps
// only its first (lowest-id) holder. It is the redundancy ablation: identical
// placement structure, no redundant computation.
func (a *Assignment) StripRedundancy() *Assignment {
	owned := make([][]int, a.HostN)
	for c, hs := range a.Holders {
		if len(hs) > 0 {
			owned[hs[0]] = append(owned[hs[0]], c)
		}
	}
	out, err := FromOwned(a.HostN, a.Columns, owned)
	if err != nil {
		panic(fmt.Sprintf("assign: StripRedundancy produced invalid assignment: %v", err))
	}
	return out
}

// unitSpan describes how one abstract "unit" of the tree assignment expands
// into guest columns: unit u covers [u*B - L, (u+1)*B + R) clipped to the
// guest. Load-one OVERLAP uses (1,0,0); the work-efficient variant (β,0,0);
// the flattened Theorem 5 composition (β*s, 2s, 0).
type unitSpan struct {
	B, L, R int
}

func (s unitSpan) columns(u, m int) (lo, hi int) {
	lo = u*s.B - s.L
	hi = (u+1)*s.B + s.R
	if lo < 0 {
		lo = 0
	}
	if hi > m {
		hi = m
	}
	return lo, hi
}

// treeUnits walks the processed interval tree and returns, for every host
// processor, the abstract units it is assigned by the Section 3.2 recursion:
// a node with stage-3 label x holding units [i, i+x) passes [i, i+x1) to its
// left child and [i+x-x2, i+x) to its right child, so siblings share
// m_{k+1} units; a live leaf ends up with exactly one unit.
func treeUnits(t *tree.Tree) ([][]int, int) {
	units := make([][]int, t.N)
	if t.Root.Removed {
		return units, 0
	}
	var walk func(nd *tree.Node, base int)
	walk = func(nd *tree.Node, base int) {
		if nd.Left == nil {
			units[nd.Lo] = append(units[nd.Lo], base)
			return
		}
		live := nd.LiveChildren()
		switch len(live) {
		case 1:
			walk(live[0], base)
		case 2:
			l, r := live[0], live[1]
			walk(l, base)
			walk(r, base+nd.Label3-r.Label3)
		}
	}
	walk(t.Root, 0)
	return units, t.Root.Label3
}

// TreeUnits exposes the Section 3.2 assignment recursion at unit
// granularity: Units[p] lists the abstract units host processor p holds and
// n' is the unit count (the root's stage-3 label). Packages that assign
// non-linear guests (e.g. mesh columns, package mesharray) expand units
// themselves.
func TreeUnits(t *tree.Tree) (units [][]int, n int) {
	return treeUnits(t)
}

// Overlap builds the load-one OVERLAP assignment of Section 3.2 from a
// processed interval tree: the guest has n' = t.GuestSize() columns and each
// live host processor holds exactly one database (columns in sibling
// overlaps are held by both sides).
func Overlap(t *tree.Tree) (*Assignment, error) {
	return overlapSpan(t, unitSpan{B: 1})
}

// OverlapBlocked builds the work-efficient assignment of Section 3.3: each
// abstract unit becomes a block of beta consecutive databases, so the guest
// has n'*beta columns and the load is beta.
func OverlapBlocked(t *tree.Tree, beta int) (*Assignment, error) {
	if beta < 1 {
		return nil, fmt.Errorf("assign: beta %d < 1", beta)
	}
	return overlapSpan(t, unitSpan{B: beta})
}

// TwoLevel builds the flattened Theorem 5 assignment: each abstract unit is
// a block of beta intermediate (H0) processors, and each H0 processor owns a
// Theorem 4 range of sqrtD guest columns extended 2*sqrtD to the left. The
// guest therefore has n'*beta*sqrtD columns and the load is
// (beta+2)*sqrtD = O(sqrt(d_ave) log^3 n) at the paper's parameters.
func TwoLevel(t *tree.Tree, beta, sqrtD int) (*Assignment, error) {
	if beta < 1 || sqrtD < 1 {
		return nil, fmt.Errorf("assign: beta=%d sqrtD=%d must be >= 1", beta, sqrtD)
	}
	return overlapSpan(t, unitSpan{B: beta * sqrtD, L: 2 * sqrtD})
}

func overlapSpan(t *tree.Tree, span unitSpan) (*Assignment, error) {
	units, nUnits := treeUnits(t)
	if nUnits == 0 {
		return nil, fmt.Errorf("assign: tree has no live processors")
	}
	m := nUnits * span.B
	total := 0
	for _, us := range units {
		for _, u := range us {
			lo, hi := span.columns(u, m)
			total += hi - lo
		}
	}
	owned := make([][]int, t.N)
	flat := make([]int, 0, total) // every host's unit ranges back to back, overlaps included
	for p, us := range units {
		start := len(flat)
		for _, u := range us {
			lo, hi := span.columns(u, m)
			for c := lo; c < hi; c++ {
				flat = append(flat, c)
			}
		}
		cols := flat[start:]
		slices.Sort(cols)
		cols = slices.Compact(cols)
		flat = flat[:start+len(cols)]
		owned[p] = cols
	}
	// FromOwned copies every list, so owned may share flat's memory.
	return FromOwned(t.N, m, owned)
}

// UniformBlocks builds the Theorem 4 assignment on a host of hostN
// processors: processor j owns the guest columns
// [j*stride - left, (j+1)*stride + right) clipped to [0, m), m =
// hostN*stride. The paper's P_j regions use left = 2*stride, right = 0
// (width 3*sqrt(d), Figure 4).
func UniformBlocks(hostN, stride, left, right int) (*Assignment, error) {
	if hostN < 1 || stride < 1 {
		return nil, fmt.Errorf("assign: hostN=%d stride=%d", hostN, stride)
	}
	m := hostN * stride
	owned := make([][]int, hostN)
	for p := 0; p < hostN; p++ {
		lo := p*stride - left
		hi := (p+1)*stride + right
		if lo < 0 {
			lo = 0
		}
		if hi > m {
			hi = m
		}
		cols := make([]int, 0, hi-lo)
		for c := lo; c < hi; c++ {
			cols = append(cols, c)
		}
		owned[p] = cols
	}
	return FromOwned(hostN, m, owned)
}

// SingleCopyBlocks distributes m columns over the host in contiguous
// single-copy blocks: processor p holds columns [p*m/n, (p+1)*m/n). This is
// the natural no-redundancy assignment of prior approaches (Theorem 9
// regime).
func SingleCopyBlocks(hostN, m int) (*Assignment, error) {
	if hostN < 1 || m < 1 {
		return nil, fmt.Errorf("assign: hostN=%d m=%d", hostN, m)
	}
	owned := make([][]int, hostN)
	for p := 0; p < hostN; p++ {
		lo := p * m / hostN
		hi := (p + 1) * m / hostN
		for c := lo; c < hi; c++ {
			owned[p] = append(owned[p], c)
		}
	}
	return FromOwned(hostN, m, owned)
}

// ReplicatedBlocks distributes m columns in the same contiguous blocks as
// SingleCopyBlocks, but replicates block b onto the `copies` consecutive
// processors nearest b (clipped at the line ends), so every column has
// exactly `copies` replicas on neighboring hosts. This is the replication
// pattern OVERLAP uses for fault tolerance: any copies-1 crash-stop hosts
// leave a live replica of every column.
func ReplicatedBlocks(hostN, m, copies int) (*Assignment, error) {
	if hostN < 1 || m < 1 {
		return nil, fmt.Errorf("assign: hostN=%d m=%d", hostN, m)
	}
	if copies < 1 || copies > hostN {
		return nil, fmt.Errorf("assign: copies=%d outside [1,%d]", copies, hostN)
	}
	owned := make([][]int, hostN)
	for b := 0; b < hostN; b++ {
		colLo := b * m / hostN
		colHi := (b + 1) * m / hostN
		if colLo == colHi {
			continue
		}
		lo := b - (copies-1)/2
		if lo < 0 {
			lo = 0
		}
		if lo > hostN-copies {
			lo = hostN - copies
		}
		for p := lo; p < lo+copies; p++ {
			for c := colLo; c < colHi; c++ {
				owned[p] = append(owned[p], c)
			}
		}
	}
	return FromOwned(hostN, m, owned)
}

// SingleCopyOnHosts places contiguous single-copy blocks on an explicit
// subset of host processors (ascending ids). It supports baselines that pick
// favourable processors, e.g. avoiding H1's slow links.
func SingleCopyOnHosts(hostN, m int, hosts []int) (*Assignment, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("assign: no hosts given")
	}
	owned := make([][]int, hostN)
	k := len(hosts)
	for idx, p := range hosts {
		if p < 0 || p >= hostN {
			return nil, fmt.Errorf("assign: host %d out of range", p)
		}
		lo := idx * m / k
		hi := (idx + 1) * m / k
		for c := lo; c < hi; c++ {
			owned[p] = append(owned[p], c)
		}
	}
	return FromOwned(hostN, m, owned)
}

// Contraction is the prior efficiency-preserving approach the introduction
// mentions: use only every gap-th host processor (about hostN/d_max of them)
// so that the per-step d_max wait is amortised over gap columns of local
// work. Columns are single copies on the selected processors.
func Contraction(hostN, m, gap int) (*Assignment, error) {
	if gap < 1 {
		gap = 1
	}
	var hosts []int
	for p := 0; p < hostN; p += gap {
		hosts = append(hosts, p)
	}
	return SingleCopyOnHosts(hostN, m, hosts)
}
