// Package mesharray implements Section 5: simulating an m x m unit-delay
// guest array on hosts with high-latency links.
//
// Theorem 7 simulates the mesh on an intermediate uniform-delay linear array
// H0 by giving each host processor a block of full mesh columns — one column
// each when m <= n0 (case 1, slowdown O(m)), m/n0 consecutive columns when
// m > n0 (case 2, slowdown O(m^2/n0)). No redundancy is needed: a whole
// column's worth of local work already hides the link delay.
//
// Theorem 8 runs the same column-block decomposition through the OVERLAP
// machinery on an arbitrary host: the interval tree's abstract units become
// blocks of mesh columns (overlapping at sibling boundaries exactly as in
// Section 3.2), so the combined slowdown is O(m log^3 n + m^2/n).
package mesharray

import (
	"fmt"
	"math"

	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
	"latencyhide/internal/tree"
)

// Options configures a mesh simulation.
type Options struct {
	Rows  int // guest mesh height (pebbles per column)
	Steps int
	Seed  int64
	// ColsPerUnit is the number of mesh columns per tree unit in OnNOW;
	// zero means 1.
	ColsPerUnit int
	Bandwidth   int
	Workers     int
	Check       bool
	// ComputePerStep and Recorder pass through to the engine.
	ComputePerStep int
	Recorder       *obs.Buffer
}

// Result is a mesh simulation outcome.
type Result struct {
	Rows, Cols int
	HostN      int
	Sim        *sim.Result
	// PredictedSlowdown is the theorem's bound without constants:
	// m + m^2/n0 on a uniform line (Theorem 7), (m + m^2/n) log^3 n on a
	// NOW (Theorem 8), with m = Cols here.
	PredictedSlowdown float64
	// ObsInfo carries the run facts for package obs instruments when
	// Options.Recorder was set; nil otherwise.
	ObsInfo *obs.RunInfo
}

// meshOwned expands "host p owns mesh columns [lo, hi)" into guest node ids.
func meshOwned(rows, totalCols, lo, hi int) []int {
	if lo < 0 {
		lo = 0
	}
	if hi > totalCols {
		hi = totalCols
	}
	out := make([]int, 0, rows*(hi-lo))
	for r := 0; r < rows; r++ {
		for c := lo; c < hi; c++ {
			out = append(out, r*totalCols+c)
		}
	}
	return out
}

// OnUniformLine is Theorem 7: simulate a Rows x cols mesh on a hostN-node
// linear array whose every link has delay d. cols is split into contiguous
// single-copy blocks of ceil(cols/hostN) columns (one column per processor
// when cols <= hostN).
func OnUniformLine(hostN, d, cols int, opt Options) (*Result, error) {
	if hostN < 2 || cols < 1 || opt.Rows < 1 {
		return nil, fmt.Errorf("mesharray: hostN=%d cols=%d rows=%d", hostN, cols, opt.Rows)
	}
	owned := make([][]int, hostN)
	if cols <= hostN {
		for p := 0; p < cols; p++ {
			owned[p] = meshOwned(opt.Rows, cols, p, p+1)
		}
	} else {
		for p := 0; p < hostN; p++ {
			lo := p * cols / hostN
			hi := (p + 1) * cols / hostN
			owned[p] = meshOwned(opt.Rows, cols, lo, hi)
		}
	}
	a, err := assign.FromOwned(hostN, opt.Rows*cols, owned)
	if err != nil {
		return nil, err
	}
	delays := make([]int, hostN-1)
	for i := range delays {
		delays[i] = d
	}
	res, err := runMesh(delays, a, cols, opt)
	if err != nil {
		return nil, err
	}
	m := float64(cols)
	res.PredictedSlowdown = m + float64(d) + m*m/float64(hostN)
	return res, nil
}

// OnNOW is Theorem 8: simulate a Rows x (n'*ColsPerUnit) mesh on an
// arbitrary connected host network, via the dilation-3 line embedding and
// the OVERLAP interval tree over the embedded line.
func OnNOW(g *network.Network, opt Options) (*Result, error) {
	line, err := embedding.Embed(g, 0)
	if err != nil {
		return nil, err
	}
	return OnLine(line.Delays, opt)
}

// OnLine is OnNOW for a host that is already a line with the given delays.
func OnLine(delays []int, opt Options) (*Result, error) {
	cpu := opt.ColsPerUnit
	if cpu == 0 {
		cpu = 1
	}
	if opt.Rows < 1 {
		return nil, fmt.Errorf("mesharray: rows %d < 1", opt.Rows)
	}
	t := tree.Build(delays, 4)
	if err := t.CheckLemmas(); err != nil {
		return nil, err
	}
	units, nUnits := assign.TreeUnits(t)
	if nUnits == 0 {
		return nil, fmt.Errorf("mesharray: no live host processors")
	}
	cols := nUnits * cpu
	n := len(delays) + 1
	owned := make([][]int, n)
	for p, us := range units {
		seen := make(map[int]bool)
		for _, u := range us {
			for _, id := range meshOwned(opt.Rows, cols, u*cpu, (u+1)*cpu) {
				if !seen[id] {
					seen[id] = true
					owned[p] = append(owned[p], id)
				}
			}
		}
	}
	a, err := assign.FromOwned(n, opt.Rows*cols, owned)
	if err != nil {
		return nil, err
	}
	res, err := runMesh(delays, a, cols, opt)
	if err != nil {
		return nil, err
	}
	m := float64(cols)
	logn := float64(network.Log2Ceil(n))
	res.PredictedSlowdown = (m + m*m/float64(n)) * math.Pow(logn, 3)
	return res, nil
}

func runMesh(delays []int, a *assign.Assignment, cols int, opt Options) (*Result, error) {
	rows := opt.Rows
	mesh := guest.NewMesh(rows, cols)
	cfg := sim.Config{
		Delays: delays,
		Guest: guest.Spec{
			Graph: mesh,
			Steps: opt.Steps,
			Seed:  opt.Seed,
		},
		Assign:         a,
		Bandwidth:      opt.Bandwidth,
		ComputePerStep: opt.ComputePerStep,
		Workers:        opt.Workers,
		Check:          opt.Check,
		Recorder:       opt.Recorder,
	}
	r, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{Rows: rows, Cols: cols, HostN: a.HostN, Sim: r}
	if opt.Recorder != nil {
		info := cfg.ObsInfo(r)
		out.ObsInfo = &info
	}
	return out, nil
}
