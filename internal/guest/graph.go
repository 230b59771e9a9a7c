// Package guest implements the paper's "database model" of computation
// (Section 2 of Andrews, Leighton, Metaxas and Zhang, SPAA 1996).
//
// A guest machine is a unit-delay network of m processors g_1..g_m. Each
// processor g_i owns a database b_i. At every step t, g_i consults b_i and
// the pebbles computed at step t-1 by itself and its neighbors, computes
// pebble (i, t), and applies the resulting update to b_i. A pebble records
// both the result of the computation and the change it makes to the database
// — never a snapshot of the database itself, which is assumed too large to
// transmit.
//
// The package makes the model concrete and *checkable*: pebble values are
// 64-bit digests produced by an order-sensitive mixing function of the
// database digest and the dependency values, so any host simulation that
// violates a dependency or applies updates out of order computes different
// values from the sequential reference executor.
package guest

import "fmt"

// Graph is a guest network topology. All links have unit delay. Node ids are
// dense in [0, NumNodes()).
type Graph interface {
	// NumNodes reports the number of guest processors.
	NumNodes() int
	// Neighbors returns node i's neighbors in strictly increasing order,
	// excluding i itself. The result must not be modified.
	Neighbors(i int) []int
	// Name describes the topology for reports.
	Name() string
}

// LinearArray is the m-processor guest linear array used throughout
// Section 3: node i depends on nodes i-1 and i+1.
type LinearArray struct {
	m int
	// flat lists every node's neighbors in node order: node i's are
	// flat[2i-1 : 2i+1], clipped to the array at the two ends.
	flat []int
}

// NewLinearArray returns the guest linear array with m processors.
func NewLinearArray(m int) *LinearArray {
	if m < 1 {
		panic(fmt.Sprintf("guest: linear array size %d", m))
	}
	la := &LinearArray{m: m}
	if m == 1 {
		return la
	}
	la.flat = make([]int, 0, 2*m-2)
	for i := 0; i < m; i++ {
		if i > 0 {
			la.flat = append(la.flat, i-1)
		}
		if i < m-1 {
			la.flat = append(la.flat, i+1)
		}
	}
	return la
}

// NumNodes implements Graph.
func (l *LinearArray) NumNodes() int { return l.m }

// Neighbors implements Graph. The slice is capped at its own end, so no
// caller can append into the next node's neighbors.
func (l *LinearArray) Neighbors(i int) []int {
	lo, hi := max(2*i-1, 0), min(2*i+1, len(l.flat))
	return l.flat[lo:hi:hi]
}

// Name implements Graph.
func (l *LinearArray) Name() string { return fmt.Sprintf("guest-line(%d)", l.m) }

// Ring is an m-processor guest ring. A ring can be simulated by a linear
// array with slowdown 2 (Leighton 1992), so the paper states results for
// linear arrays; we provide the ring directly as well.
type Ring struct {
	m     int
	neigh [][]int
}

// NewRing returns the guest ring with m processors (m >= 3).
func NewRing(m int) *Ring {
	if m < 3 {
		panic(fmt.Sprintf("guest: ring size %d < 3", m))
	}
	r := &Ring{m: m, neigh: make([][]int, m)}
	for i := 0; i < m; i++ {
		a, b := (i+m-1)%m, (i+1)%m
		if a > b {
			a, b = b, a
		}
		r.neigh[i] = []int{a, b}
	}
	return r
}

// NumNodes implements Graph.
func (r *Ring) NumNodes() int { return r.m }

// Neighbors implements Graph.
func (r *Ring) Neighbors(i int) []int { return r.neigh[i] }

// Name implements Graph.
func (r *Ring) Name() string { return fmt.Sprintf("guest-ring(%d)", r.m) }

// Mesh is an rows x cols guest 2-dimensional array (Section 5): node (r, c)
// has index r*cols+c and depends on its (up to) four grid neighbors.
type Mesh struct {
	rows, cols int
	neigh      [][]int
}

// NewMesh returns the rows x cols guest array.
func NewMesh(rows, cols int) *Mesh {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("guest: mesh %dx%d", rows, cols))
	}
	m := &Mesh{rows: rows, cols: cols, neigh: make([][]int, rows*cols)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			var ns []int
			if r > 0 {
				ns = append(ns, i-cols)
			}
			if c > 0 {
				ns = append(ns, i-1)
			}
			if c+1 < cols {
				ns = append(ns, i+1)
			}
			if r+1 < rows {
				ns = append(ns, i+cols)
			}
			m.neigh[i] = ns
		}
	}
	return m
}

// NumNodes implements Graph.
func (m *Mesh) NumNodes() int { return m.rows * m.cols }

// Neighbors implements Graph.
func (m *Mesh) Neighbors(i int) []int { return m.neigh[i] }

// Name implements Graph.
func (m *Mesh) Name() string { return fmt.Sprintf("guest-mesh(%dx%d)", m.rows, m.cols) }

// Rows reports the mesh height.
func (m *Mesh) Rows() int { return m.rows }

// Cols reports the mesh width.
func (m *Mesh) Cols() int { return m.cols }

// Custom is an arbitrary guest graph built from an adjacency list. It lets
// the open-question experiments (Section 7) run guests with the same
// structure as the host.
type Custom struct {
	name  string
	neigh [][]int
}

// NewCustom builds a guest graph from adjacency lists. Each list is sorted
// and deduplicated; self references are removed.
func NewCustom(name string, adjacency [][]int) *Custom {
	c := &Custom{name: name, neigh: make([][]int, len(adjacency))}
	for i, ns := range adjacency {
		seen := make(map[int]bool, len(ns))
		var out []int
		for _, v := range ns {
			if v == i || v < 0 || v >= len(adjacency) || seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
		sortInts(out)
		c.neigh[i] = out
	}
	return c
}

// NumNodes implements Graph.
func (c *Custom) NumNodes() int { return len(c.neigh) }

// Neighbors implements Graph.
func (c *Custom) Neighbors(i int) []int { return c.neigh[i] }

// Name implements Graph.
func (c *Custom) Name() string { return c.name }

func sortInts(a []int) {
	// insertion sort; neighbor lists are tiny (bounded degree)
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// MaxDegree reports the maximum neighbor count over all nodes of g.
func MaxDegree(g Graph) int {
	best := 0
	for i := 0; i < g.NumNodes(); i++ {
		if d := len(g.Neighbors(i)); d > best {
			best = d
		}
	}
	return best
}
