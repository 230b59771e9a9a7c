// Package twin is the analytical twin of the simulator: closed-form
// slowdown predictors for the paper's theorems, evaluated from a scenario's
// topology statistics alone — no simulation. Each theorem family pairs two
// quantities the paper reasons with:
//
//   - a work term, the assignment load (Theorem 2's "load O(sqrt d)"
//     budget, Theorem 3's work-efficiency constraint), and
//   - a propagation term, the ping-pong dependency floor of Theorem 9
//     generalised to arbitrary guest graphs: for guest nodes u, v at guest
//     distance w, pebble (u, t) transitively requires (v, t-w) and vice
//     versa, so sustained slowdown is at least dist(holders(u),
//     holders(v))/w.
//
// On the paper's canonical constructions the propagation term reduces to
// exactly the theorems' closed forms — d/s = Theta(sqrt d) for the
// Theorem 4 overlapping blocks on a uniform-delay line, d_max = sqrt(n)
// for single-copy assignments on H1 (Theorem 9), Omega(log n) for two-copy
// assignments on H2 (Theorem 10), and ~n (>= the certified n^(1/4)) for
// the Section 4 clique chain — the unit tests pin those reductions against
// hand-computed values. Across the verify generator's scenario space the
// twin's point prediction is the affine combination
//
//	slowdown ~= C0 + CLoad*Load + CFloor*PropFloor
//
// with per-theorem constants fitted ONCE from the seed corpus (seed 1,
// 2000 fault-free scenarios; `latencysim twin -fit` regenerates them — see
// DESIGN.md §11 for the fit and the holdout methodology). Divergence
// beyond a family's MAPE ceiling is a test failure: either the engine
// regressed or the model no longer explains the system.
//
// The package is dependency-free by design: predictors consume plain
// numbers (Stats), and the floor computation takes any guest graph through
// the minimal GuestGraph interface, so the twin can never "cheat" by
// calling back into the engine.
package twin

import (
	"fmt"
	"math"
	"sort"
)

// GuestGraph is the slice of guest.Graph the floor computation needs;
// guest.Graph satisfies it structurally.
type GuestGraph interface {
	NumNodes() int
	Neighbors(i int) []int
}

// Stats are the closed-form topology statistics of one scenario: the host
// line, the replication structure and the two theorem terms. Everything
// here is computable from the scenario description alone.
type Stats struct {
	// Hosts is the host line size n; Cols the guest column count.
	Hosts, Cols int
	// Load is the maximum number of databases on any host (the work term).
	Load int
	// Rep is the nominal replication factor (1 = single copy).
	Rep int
	// Steps is the guest horizon T the run simulates.
	Steps int
	// Bandwidth is the per-link bandwidth in pebbles/step (the engine's
	// realized value, never 0).
	Bandwidth int
	// DAve and DMax summarise the host line's link delays.
	DAve float64
	DMax int
	// PropFloor is the generalised ping-pong floor: max over guest pairs
	// (u, v) at guest distance w of minHolderDist(u, v)/w. It is the
	// sustained-rate bound of Theorem 9's argument and the twin's main
	// regressor.
	PropFloor float64
	// CertFloor is the finite-horizon certified bound derived from the
	// same chains: max over pairs of 2*dist*floor((T-1)/(2w))/T, never
	// below 1. Every measured slowdown must respect it exactly; the
	// report treats a violation as a hard failure.
	CertFloor float64
}

// Floors computes the generalised ping-pong propagation terms for a guest
// graph assigned to a host line: holders[c] lists the line positions
// replicating guest node c (ascending), delays the n-1 link delays, and
// steps the guest horizon T. The search window is 2*sqrt(m) guest hops —
// wide enough that on every host in this repository the maximising pair is
// inside it (doubling the window moves no corpus floor).
//
// Degenerate inputs are well-defined: a single guest node (or single host)
// has no pairs and floors (0, 1); zero-delay links contribute distance 0.
func Floors(g GuestGraph, holders [][]int, delays []int, steps int) (propFloor, certFloor float64) {
	m := g.NumNodes()
	certFloor = 1
	if m < 2 || steps < 1 {
		return 0, certFloor
	}
	prefix := make([]int64, len(delays)+1)
	for i, d := range delays {
		prefix[i+1] = prefix[i] + int64(d)
	}
	dist := func(p, q int) int64 {
		if p > q {
			p, q = q, p
		}
		return prefix[q] - prefix[p]
	}
	window := 1
	for window*window < 4*m {
		window++
	}
	depth := make([]int, m)
	queue := make([]int, 0, m)
	for u := 0; u < m; u++ {
		for i := range depth {
			depth[i] = -1
		}
		depth[u] = 0
		// Pop by head index: the queue keeps its start, so its capacity of
		// m (each node enters once) serves every BFS without regrowing.
		queue = append(queue[:0], u)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			if depth[x] >= window {
				continue
			}
			for _, y := range g.Neighbors(x) {
				if depth[y] < 0 {
					depth[y] = depth[x] + 1
					queue = append(queue, y)
				}
			}
		}
		for v := u + 1; v < m; v++ {
			w := depth[v]
			if w < 1 {
				continue
			}
			best := int64(-1)
			for _, p := range holders[u] {
				for _, q := range holders[v] {
					if d := dist(p, q); best < 0 || d < best {
						best = d
					}
				}
			}
			if best <= 0 {
				continue
			}
			if f := float64(best) / float64(w); f > propFloor {
				propFloor = f
			}
			if k := (steps - 1) / (2 * w); k > 0 {
				if f := float64(2*best*int64(k)) / float64(steps); f > certFloor {
					certFloor = f
				}
			}
		}
	}
	return propFloor, certFloor
}

// Band is a predicted slowdown interval around a point prediction.
type Band struct {
	Lo, Point, Hi float64
}

// Contains reports whether the measured slowdown falls inside the band.
func (b Band) Contains(measured float64) bool {
	return measured >= b.Lo && measured <= b.Hi
}

// Constants are one theorem family's fitted model: point = C0 + CLoad*Load
// + CFloor*PropFloor (clamped to >= 1), band = point*(1 +- Spread).
type Constants struct {
	C0, CLoad, CFloor float64
	// Spread is the relative half-width of the band, set to the fitting
	// corpus's q95 relative residual.
	Spread float64
}

// Predictor is one theorem family of the analytical twin.
type Predictor struct {
	// Name keys the family: "uniform", "combined", "singlecopy" or
	// "cliquechain".
	Name string
	// Theorem cites the paper result the family validates.
	Theorem string
	// Fitted holds the frozen constants (see DESIGN.md §11).
	Fitted Constants
	// MAPECeiling is the hard pass/fail threshold on mean absolute
	// percentage error; `latencysim twin -report` and CI fail above it.
	MAPECeiling float64
	// Form evaluates the theorem's closed-form expression on the stats —
	// sqrt(d_ave), sqrt(d_ave)*log^3 n, d_max, or n^(1/4) — reported for
	// reference next to the structural prediction.
	Form func(s Stats) float64
}

// Predict evaluates the family's point prediction and band.
func (p *Predictor) Predict(s Stats) Band {
	point := p.Fitted.C0 + p.Fitted.CLoad*float64(s.Load) + p.Fitted.CFloor*s.PropFloor
	if point < 1 {
		point = 1 // slowdown below 1 is impossible
	}
	lo := point * (1 - p.Fitted.Spread)
	if lo < 1 {
		lo = 1
	}
	return Band{Lo: lo, Point: point, Hi: point * (1 + p.Fitted.Spread)}
}

// log2 of n clamped to >= 1 so degenerate hosts (n = 1) stay finite.
func log2c(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// The four theorem families. Constants were fitted once from the seed
// corpus (`latencysim twin -fit -seed 1 -n 2000`; holdout seed 2 — see
// DESIGN.md §11) and are intentionally hard-coded: the twin must not
// re-fit itself on the data it is validating.
var predictors = []*Predictor{
	{
		Name:        "uniform",
		Theorem:     "Theorems 2/4: uniform-delay hosts pay Theta(sqrt d)",
		Fitted:      Constants{C0: -1.0790, CLoad: 0.9927, CFloor: 0.7690, Spread: 0.40},
		MAPECeiling: 0.20,
		Form:        func(s Stats) float64 { return math.Sqrt(math.Max(s.DAve, 1)) },
	},
	{
		Name:        "combined",
		Theorem:     "Theorems 5/6: combined protocol pays O(sqrt(d_ave) log^3 n)",
		Fitted:      Constants{C0: 0.3004, CLoad: 0.7505, CFloor: 0.7708, Spread: 0.40},
		MAPECeiling: 0.20,
		Form: func(s Stats) float64 {
			l := log2c(s.Hosts)
			return math.Sqrt(math.Max(s.DAve, 1)) * l * l * l
		},
	},
	{
		Name:        "singlecopy",
		Theorem:     "Theorem 9: one copy per database forces slowdown d_max",
		Fitted:      Constants{C0: -0.7822, CLoad: 0.7235, CFloor: 0.8221, Spread: 0.30},
		MAPECeiling: 0.16,
		Form:        func(s Stats) float64 { return math.Max(float64(s.DMax), 1) },
	},
	{
		Name:        "cliquechain",
		Theorem:     "Section 4: clique chain pays >= n^(1/4) despite d_ave = O(1)",
		Fitted:      Constants{C0: 0.0764, CLoad: 0, CFloor: 0.9236, Spread: 0.08},
		MAPECeiling: 0.10,
		Form:        func(s Stats) float64 { return math.Pow(math.Max(float64(s.Cols), 1), 0.25) },
	},
}

// Predictors returns the four theorem families in report order.
func Predictors() []*Predictor { return predictors }

// ByName returns the named family, or nil.
func ByName(name string) *Predictor {
	for _, p := range predictors {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Classify maps a generated scenario's stats to its theorem family:
// single-copy assignments belong to Theorem 9; replicated scenarios split
// on delay homogeneity — near-uniform lines (d_max <= 1.5 d_ave) are the
// Theorem 2/4 regime, heterogeneous lines the Theorems 5/6 regime. The
// clique-chain family is never inferred from stats; the fleet tags those
// items explicitly (the construction, not the numbers, is what Section 4
// is about).
func Classify(s Stats) *Predictor {
	switch {
	case s.Rep <= 1:
		return ByName("singlecopy")
	case float64(s.DMax) <= 1.5*math.Max(s.DAve, 1):
		return ByName("uniform")
	default:
		return ByName("combined")
	}
}

// Sample is one (stats, measured slowdown) observation for fitting.
type Sample struct {
	Stats    Stats
	Measured float64
}

// Fit solves the least-squares problem measured ~= C0 + CLoad*Load +
// CFloor*PropFloor over the samples and returns the constants with Spread
// set to the q95 relative residual — the procedure that produced the
// frozen constants above. When dropLoad is set the load column is removed
// (the clique-chain ladder has constant load 1, which would make the
// system singular) and CLoad is 0.
func Fit(samples []Sample, dropLoad bool) (Constants, error) {
	if len(samples) < 3 {
		return Constants{}, fmt.Errorf("twin: need >= 3 samples to fit, got %d", len(samples))
	}
	cols := 3
	if dropLoad {
		cols = 2
	}
	row := func(s Stats) []float64 {
		if dropLoad {
			return []float64{1, s.PropFloor}
		}
		return []float64{1, float64(s.Load), s.PropFloor}
	}
	// Normal equations, solved by Gauss-Jordan with partial pivoting —
	// a 3x3 system, so numerically benign.
	m := make([][]float64, cols)
	for i := range m {
		m[i] = make([]float64, cols+1)
	}
	for _, sm := range samples {
		r := row(sm.Stats)
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				m[i][j] += r[i] * r[j]
			}
			m[i][cols] += r[i] * sm.Measured
		}
	}
	for i := 0; i < cols; i++ {
		p := i
		for r := i + 1; r < cols; r++ {
			if math.Abs(m[r][i]) > math.Abs(m[p][i]) {
				p = r
			}
		}
		m[i], m[p] = m[p], m[i]
		if math.Abs(m[i][i]) < 1e-12 {
			return Constants{}, fmt.Errorf("twin: singular fit (column %d); is the corpus degenerate?", i)
		}
		for r := 0; r < cols; r++ {
			if r == i {
				continue
			}
			f := m[r][i] / m[i][i]
			for c := i; c <= cols; c++ {
				m[r][c] -= f * m[i][c]
			}
		}
	}
	sol := make([]float64, cols)
	for i := range sol {
		sol[i] = m[i][cols] / m[i][i]
	}
	out := Constants{C0: sol[0]}
	if dropLoad {
		out.CFloor = sol[1]
	} else {
		out.CLoad, out.CFloor = sol[1], sol[2]
	}
	// Spread = q95 of relative residuals of the clamped point prediction.
	res := make([]float64, 0, len(samples))
	for _, sm := range samples {
		point := out.C0 + out.CLoad*float64(sm.Stats.Load) + out.CFloor*sm.Stats.PropFloor
		if point < 1 {
			point = 1
		}
		if sm.Measured > 0 {
			res = append(res, math.Abs(point-sm.Measured)/sm.Measured)
		}
	}
	sort.Float64s(res)
	if len(res) > 0 {
		idx := (len(res) * 95) / 100
		if idx >= len(res) {
			idx = len(res) - 1
		}
		out.Spread = res[idx]
	}
	return out, nil
}

// MAPE is the mean absolute percentage error of the family's point
// prediction over the samples; NaN when empty.
func (p *Predictor) MAPE(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, sm := range samples {
		pred := p.Predict(sm.Stats).Point
		sum += math.Abs(pred-sm.Measured) / sm.Measured
	}
	return sum / float64(len(samples))
}
