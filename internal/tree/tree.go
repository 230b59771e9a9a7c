// Package tree implements Section 3.1 of the paper: the binary interval tree
// T over the host linear array, the two rounds of killing "useless"
// processors, and the three labeling stages that determine how many guest
// columns each subarray can simulate (Figure 2, Lemmas 1-4).
//
// Stage 1 kills every processor contained in some depth-k interval whose
// total internal delay exceeds D_k = (n/2^k) * d_ave * c * log n. Stage 2
// labels the tree bottom-up with overlaps m_k = n / (c * 2^k * log n) and
// kills intervals whose label falls below 2*m_k (too few live processors to
// be worth the communication). Stage 3 relabels with the child overlap
// m_{k+1}; the stage-3 label of a node is the number of guest columns its
// interval can simulate, and the root label is the guest size n' >=
// (1 - 2/c) n.
//
// The implementation uses integer m_k (floored, possibly zero at deep
// levels); flooring only shrinks the subtracted overlap total, so Lemma 2's
// root-label bound still holds and is asserted by CheckLemmas.
package tree

import (
	"fmt"

	"latencyhide/internal/network"
)

// Node is one interval of the host array: positions [Lo, Hi).
type Node struct {
	Lo, Hi int
	Depth  int
	// Delay is the total delay of links strictly inside [Lo, Hi).
	Delay int64
	// Label2 and Label3 are the stage-2 and stage-3 labels; 0 for removed
	// nodes.
	Label2, Label3 int
	// Removed reports the node was removed from T (no live processors, or
	// killed in stage 2).
	Removed     bool
	Left, Right *Node
}

// Size reports the number of host positions in the interval.
func (nd *Node) Size() int { return nd.Hi - nd.Lo }

// LiveChildren returns the node's remaining (non-removed) children, left
// first.
func (nd *Node) LiveChildren() []*Node {
	var out []*Node
	if nd.Left != nil && !nd.Left.Removed {
		out = append(out, nd.Left)
	}
	if nd.Right != nil && !nd.Right.Removed {
		out = append(out, nd.Right)
	}
	return out
}

// Tree is the fully processed interval tree for one host array.
type Tree struct {
	N    int     // host array size
	C    int     // the paper's constant c (> 2)
	LogN int     // ceil(log2 n), the "log n" of all formulas
	Dave float64 // average link delay of the host array

	Root  *Node
	Alive []bool // Alive[p]: p survived both killing rounds

	// Killing statistics.
	KilledStage1 int
	KilledStage2 int

	delays []int
	prefix []int64 // prefix[i] = total delay of links 0..i-1
}

// Build constructs the interval tree for a host linear array whose link
// (i, i+1) has delay delays[i], runs both killing rounds and all three
// labeling stages. c must be > 2 (the paper's requirement); Build panics
// otherwise, since every downstream guarantee depends on it.
func Build(delays []int, c int) *Tree {
	if c <= 2 {
		panic(fmt.Sprintf("tree: constant c=%d must be > 2", c))
	}
	n := len(delays) + 1
	t := &Tree{N: n, C: c, LogN: max(1, network.Log2Ceil(n)), delays: delays}
	t.prefix = make([]int64, n)
	for i, d := range delays {
		t.prefix[i+1] = t.prefix[i] + int64(d)
	}
	t.Dave = 0
	if n > 1 {
		t.Dave = float64(t.prefix[n-1]) / float64(n-1)
	}
	t.Alive = make([]bool, n)
	for i := range t.Alive {
		t.Alive[i] = true
	}
	t.Root = t.build(0, n, 0)
	t.stage1()
	t.stage2()
	t.stage3()
	return t
}

func (t *Tree) build(lo, hi, depth int) *Node {
	nd := &Node{Lo: lo, Hi: hi, Depth: depth, Delay: t.intervalDelay(lo, hi)}
	if hi-lo > 1 {
		mid := lo + (hi-lo)/2
		nd.Left = t.build(lo, mid, depth+1)
		nd.Right = t.build(mid, hi, depth+1)
	}
	return nd
}

// intervalDelay is the total delay of links with both endpoints in [lo, hi).
func (t *Tree) intervalDelay(lo, hi int) int64 {
	if hi-lo < 2 {
		return 0
	}
	return t.prefix[hi-1] - t.prefix[lo]
}

// Dk is the stage-1 killing delay for depth k:
// D_k = (n / 2^k) * d_ave * c * log n.
func (t *Tree) Dk(k int) float64 {
	return float64(t.N) / float64(int64(1)<<uint(k)) * t.Dave * float64(t.C) * float64(t.LogN)
}

// Mk is the overlap size for depth k: floor(n / (c * 2^k * log n)), possibly
// zero at deep levels (no overlap there).
func (t *Tree) Mk(k int) int {
	den := int64(t.C) * (int64(1) << uint(k)) * int64(t.LogN)
	if den <= 0 {
		return 0
	}
	return int(int64(t.N) / den)
}

// KMax is the deepest level with a positive overlap:
// roughly log n - log log n - log c.
func (t *Tree) KMax() int {
	k := 0
	for t.Mk(k+1) >= 1 {
		k++
	}
	return k
}

// stage1 kills processors surrounded by too much delay: p dies if any
// enclosing depth-k interval has internal delay exceeding D_k.
func (t *Tree) stage1() {
	var walk func(nd *Node)
	walk = func(nd *Node) {
		if float64(nd.Delay) > t.Dk(nd.Depth) {
			for p := nd.Lo; p < nd.Hi; p++ {
				if t.Alive[p] {
					t.Alive[p] = false
					t.KilledStage1++
				}
			}
			// Children are strictly contained, so their processors
			// are already dead; no need to recurse for killing, but
			// descendants could not resurrect anyone anyway.
			return
		}
		if nd.Left != nil {
			walk(nd.Left)
			walk(nd.Right)
		}
	}
	walk(t.Root)
}

// stage2 removes empty nodes, labels the tree bottom-up with overlap m_k at
// depth k, then kills the intervals of nodes whose label is below 2*m_k.
func (t *Tree) stage2() {
	var label func(nd *Node) int
	label = func(nd *Node) int {
		if nd.Left == nil {
			if t.Alive[nd.Lo] {
				nd.Label2 = 1
			} else {
				nd.Removed = true
			}
			return nd.Label2
		}
		l := label(nd.Left)
		r := label(nd.Right)
		switch {
		case nd.Left.Removed && nd.Right.Removed:
			nd.Removed = true
		case nd.Left.Removed:
			nd.Label2 = r
		case nd.Right.Removed:
			nd.Label2 = l
		default:
			nd.Label2 = l + r - t.Mk(nd.Depth)
		}
		return nd.Label2
	}
	label(t.Root)

	// Kill intervals whose label is below the threshold. A node killed
	// here takes its whole subtree with it.
	var kill func(nd *Node)
	kill = func(nd *Node) {
		if nd.Removed {
			return
		}
		if nd.Label2 < 2*t.Mk(nd.Depth) {
			for p := nd.Lo; p < nd.Hi; p++ {
				if t.Alive[p] {
					t.Alive[p] = false
					t.KilledStage2++
				}
			}
			t.removeSubtree(nd)
			return
		}
		if nd.Left != nil {
			kill(nd.Left)
			kill(nd.Right)
		}
	}
	kill(t.Root)
}

func (t *Tree) removeSubtree(nd *Node) {
	nd.Removed = true
	nd.Label2 = 0
	nd.Label3 = 0
	if nd.Left != nil {
		t.removeSubtree(nd.Left)
		t.removeSubtree(nd.Right)
	}
}

// stage3 relabels the remaining nodes: a depth-k node with two remaining
// children gets x1 + x2 - m_{k+1} (the child-level overlap), matching the
// database assignment of Section 3.2. Stage-3 labels are >= stage-2 labels
// (Lemma 3), so no node drops below its killing threshold.
func (t *Tree) stage3() {
	var label func(nd *Node) int
	label = func(nd *Node) int {
		if nd.Removed {
			return 0
		}
		if nd.Left == nil {
			nd.Label3 = 1
			return 1
		}
		live := nd.LiveChildren()
		switch len(live) {
		case 0:
			// Cannot happen for a non-removed internal node; treat
			// defensively as removed.
			nd.Removed = true
			return 0
		case 1:
			nd.Label3 = label(live[0])
		default:
			nd.Label3 = label(live[0]) + label(live[1]) - t.Mk(nd.Depth+1)
		}
		return nd.Label3
	}
	label(t.Root)
}

// LiveCount reports the number of processors alive after both killing
// rounds.
func (t *Tree) LiveCount() int {
	c := 0
	for _, a := range t.Alive {
		if a {
			c++
		}
	}
	return c
}

// GuestSize is n': the stage-3 label of the root, i.e. the number of guest
// columns the host can simulate at load one.
func (t *Tree) GuestSize() int {
	if t.Root.Removed {
		return 0
	}
	return t.Root.Label3
}

// LiveIn returns the live processors in [nd.Lo, nd.Hi), in order.
func (t *Tree) LiveIn(nd *Node) []int {
	var out []int
	for p := nd.Lo; p < nd.Hi; p++ {
		if t.Alive[p] {
			out = append(out, p)
		}
	}
	return out
}

// Endpoints returns the leftmost and rightmost live processors of the
// interval, or ok=false if it has none.
func (t *Tree) Endpoints(nd *Node) (left, right int, ok bool) {
	left, right = -1, -1
	for p := nd.Lo; p < nd.Hi; p++ {
		if t.Alive[p] {
			if left == -1 {
				left = p
			}
			right = p
		}
	}
	return left, right, left != -1
}

// CheckLemmas verifies the structural guarantees of Lemmas 1-4 on this tree
// and returns the first violation, or nil. Property tests run it over random
// hosts.
func (t *Tree) CheckLemmas() error {
	n := t.N
	// Lemma 1: at most n/c processors are killed in stage 1.
	// (The +LogN slack absorbs integer rounding on tiny inputs.)
	if t.KilledStage1 > n/t.C+t.LogN {
		return fmt.Errorf("tree: lemma 1 violated: stage-1 killed %d > n/c = %d", t.KilledStage1, n/t.C)
	}
	// Lemma 2 + Lemma 4: root label at least (1 - 2/c) n.
	want := n - 2*n/t.C - 2*t.LogN // integer-rounding slack
	if got := t.GuestSize(); got < want {
		return fmt.Errorf("tree: lemma 2/4 violated: root label %d < (1-2/c)n ~ %d", got, want)
	}
	// Lemma 3/4 node-local properties.
	var walk func(nd *Node) error
	walk = func(nd *Node) error {
		if nd == nil || nd.Removed {
			return nil
		}
		k := nd.Depth
		if nd.Left != nil { // internal, remaining
			live := nd.LiveChildren()
			if len(live) == 0 {
				return fmt.Errorf("tree: remaining node [%d,%d) has no remaining child", nd.Lo, nd.Hi)
			}
			if nd.Label2 < 2*t.Mk(k) {
				return fmt.Errorf("tree: remaining node [%d,%d) has label2 %d < 2 m_k %d",
					nd.Lo, nd.Hi, nd.Label2, 2*t.Mk(k))
			}
			if nd.Label3 < nd.Label2 {
				return fmt.Errorf("tree: node [%d,%d) label3 %d < label2 %d",
					nd.Lo, nd.Hi, nd.Label3, nd.Label2)
			}
			switch len(live) {
			case 2:
				if nd.Label3 != live[0].Label3+live[1].Label3-t.Mk(k+1) {
					return fmt.Errorf("tree: node [%d,%d) label3 %d != %d + %d - m_{k+1} %d",
						nd.Lo, nd.Hi, nd.Label3, live[0].Label3, live[1].Label3, t.Mk(k+1))
				}
			case 1:
				if nd.Label3 != live[0].Label3 {
					return fmt.Errorf("tree: one-child node [%d,%d) label3 %d != child %d",
						nd.Lo, nd.Hi, nd.Label3, live[0].Label3)
				}
			}
			for _, ch := range live {
				if err := walk(ch); err != nil {
					return err
				}
			}
		} else if nd.Label3 != 1 {
			return fmt.Errorf("tree: live leaf %d has label %d", nd.Lo, nd.Label3)
		}
		return nil
	}
	if t.Root.Removed {
		if t.LiveCount() != 0 {
			return fmt.Errorf("tree: root removed but %d processors alive", t.LiveCount())
		}
		return nil
	}
	return walk(t.Root)
}
