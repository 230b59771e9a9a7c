// Package overlap is the paper's primary contribution, end to end: algorithm
// OVERLAP (Section 3), which simulates a unit-delay guest linear array on a
// host with arbitrary link delays using automatically-placed redundant
// computation.
//
// The pipeline is: (1) build the interval tree over the host line and run the
// killing/labeling stages (package tree); (2) derive the database assignment
// with sibling overlaps (package assign) in one of three variants — the
// load-one assignment of Theorem 2, the work-efficient blocked assignment of
// Theorem 3, or the flattened Theorem 5 composition through a uniform-delay
// intermediate array; (3) execute greedily on the latency/bandwidth-accurate
// engine (package sim). For hosts that are not linear arrays, Simulate first
// embeds a line with dilation 3 (package embedding, Fact 3) exactly as
// Section 4 prescribes.
package overlap

import (
	"fmt"
	"math"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/tree"
)

// Variant selects which OVERLAP assignment to run.
type Variant int

const (
	// LoadOne is Theorem 2: each live host processor replicates exactly
	// one database; slowdown O(d_ave log^3 n).
	LoadOne Variant = iota
	// WorkEfficient is Theorem 3: blocks of Beta databases per processor;
	// with Beta = d_ave log^3 n the simulation is work-preserving.
	WorkEfficient
	// TwoLevel is Theorem 5: OVERLAP composed with the Theorem 4 uniform
	// block simulation, giving slowdown O(sqrt(d_ave) log^3 n).
	TwoLevel
)

func (v Variant) String() string {
	switch v {
	case LoadOne:
		return "load-one"
	case WorkEfficient:
		return "work-efficient"
	case TwoLevel:
		return "two-level"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Options configures a run. The zero value is a valid load-one configuration
// with paper defaults (c = 4, bandwidth log n).
type Options struct {
	Variant Variant
	// Beta is the database block size for WorkEfficient and TwoLevel.
	// Zero means a scaled default (see DefaultBeta); ignored for LoadOne.
	Beta int
	// SqrtD is the TwoLevel stride; zero means round(sqrt(d_ave)).
	SqrtD int
	// Steps is the number of guest steps to simulate; zero means one
	// OVERLAP outer round, m_0 = n / (c log n).
	Steps int
	// Seed drives all guest state.
	Seed int64
	// Bandwidth, Workers, Check and Recorder pass through to the engine.
	Bandwidth int
	Workers   int
	Check     bool
	Recorder  *obs.Buffer
	// Faults passes a deterministic fault plan through to the engine
	// (internal/fault); nil is a true no-op.
	Faults *fault.Plan
	// Adapt passes an adaptive-replication policy through to the engine
	// (internal/adapt); nil disables adaptation.
	Adapt *adapt.Policy
	// Telemetry passes a metrics registry through to the engine
	// (internal/telemetry); nil disables instrumentation.
	Telemetry *telemetry.Registry
	// NewDatabase overrides the guest database implementation.
	NewDatabase guest.Factory
	// Op overrides the per-pebble computation (nil = the paper's digest
	// mixer); Init overrides the step-0 pebble values. See guest.Op.
	Op   guest.Op
	Init func(node int, seed int64) uint64
	// StripRedundancy removes all but one replica of every database after
	// the assignment is built — the ablation showing redundant
	// computation is necessary (Section 6 motivation).
	StripRedundancy bool
	// Ring simulates a guest *ring* instead of a linear array. The paper
	// states its results for linear arrays because "a linear array can
	// simulate a ring with slowdown 2" (Section 1); here the engine runs
	// the ring directly — the wrap columns' pebbles are multicast across
	// the whole host line, which costs at most one extra crossing per
	// round and in practice stays within the same bounds.
	Ring bool
}

// DefaultBeta returns the paper's block size d_ave * log^3 n, clamped to
// [1, maxBeta]. Experiments pass explicit smaller betas to keep sweeps
// tractable; the clamp documents the scaling.
func DefaultBeta(dave float64, n, maxBeta int) int {
	logn := float64(network.Log2Ceil(n))
	b := int(math.Round(dave * logn * logn * logn))
	if b < 1 {
		b = 1
	}
	if maxBeta > 0 && b > maxBeta {
		b = maxBeta
	}
	return b
}

// Outcome bundles everything a run produced, from tree statistics to engine
// measurements and the theory-predicted slowdown for shape comparison.
type Outcome struct {
	Variant Variant

	// Host facts.
	HostN     int
	LiveProcs int
	Dave      float64 // of the (embedded) line actually simulated
	Dmax      int
	LogN      int

	// Tree facts.
	KilledStage1, KilledStage2 int
	GuestUnits                 int // root label n'

	// Assignment facts.
	GuestCols  int
	Load       int
	MaxCopies  int
	Redundancy float64

	// Embedding facts (zero-valued when the host was already a line).
	Dilation  int
	Inflation float64

	// Engine result.
	Sim *sim.Result

	// ObsInfo carries the run facts for package obs instruments when
	// Options.Recorder was set; nil otherwise.
	ObsInfo *obs.RunInfo

	// PredictedSlowdown is the theorem's bound evaluated without its
	// hidden constant: d_ave log^3 n for Theorems 2-3,
	// sqrt(d_ave) log^3 n for Theorem 5.
	PredictedSlowdown float64
}

// SimulateLine runs OVERLAP on a host that is already a linear array with
// the given link delays.
func SimulateLine(delays []int, opt Options) (*Outcome, error) {
	n := len(delays) + 1
	t := tree.Build(delays, 4)
	if err := t.CheckLemmas(); err != nil {
		return nil, err
	}
	out := &Outcome{
		Variant: opt.Variant,
		HostN:   n, LiveProcs: t.LiveCount(),
		Dave: t.Dave, LogN: t.LogN,
		KilledStage1: t.KilledStage1, KilledStage2: t.KilledStage2,
		GuestUnits: t.GuestSize(),
	}
	for _, d := range delays {
		if d > out.Dmax {
			out.Dmax = d
		}
	}

	logn := float64(t.LogN)
	var (
		a   *assign.Assignment
		err error
	)
	switch opt.Variant {
	case LoadOne:
		a, err = assign.Overlap(t)
		out.PredictedSlowdown = t.Dave * logn * logn * logn
	case WorkEfficient:
		beta := opt.Beta
		if beta == 0 {
			beta = DefaultBeta(t.Dave, n, 512)
		}
		a, err = assign.OverlapBlocked(t, beta)
		out.PredictedSlowdown = t.Dave * logn * logn * logn
	case TwoLevel:
		beta := opt.Beta
		if beta == 0 {
			beta = DefaultBeta(1, n, 64) // log^3 n scaled down
		}
		s := opt.SqrtD
		if s == 0 {
			s = int(math.Round(math.Sqrt(t.Dave)))
		}
		if s < 1 {
			s = 1
		}
		a, err = assign.TwoLevel(t, beta, s)
		out.PredictedSlowdown = math.Sqrt(t.Dave) * logn * logn * logn
	default:
		return nil, fmt.Errorf("overlap: unknown variant %v", opt.Variant)
	}
	if err != nil {
		return nil, err
	}
	if opt.StripRedundancy {
		a = a.StripRedundancy()
	}
	out.GuestCols = a.Columns
	out.Load = a.Load()
	out.MaxCopies = a.MaxCopies()
	out.Redundancy = a.Redundancy()

	steps := opt.Steps
	if steps == 0 {
		steps = n / (4 * t.LogN)
		if steps < 1 {
			steps = 1
		}
	}
	var gg guest.Graph = guest.NewLinearArray(a.Columns)
	if opt.Ring && a.Columns >= 3 {
		// The classic slowdown-2 folding (Leighton 1992): line order
		// position k simulates ring node k/2 (k even) or m-1-(k-1)/2
		// (k odd), so ring-adjacent nodes sit at most two line positions
		// apart — including the wrap pair (m-1, 0).
		m := a.Columns
		owned := make([][]int, a.HostN)
		for p, cols := range a.Owned {
			for _, k := range cols {
				owned[p] = append(owned[p], foldRing(k, m))
			}
		}
		a, err = assign.FromOwned(a.HostN, m, owned)
		if err != nil {
			return nil, err
		}
		gg = guest.NewRing(m)
	}
	cfg := sim.Config{
		Delays: delays,
		Guest: guest.Spec{
			Graph:       gg,
			Steps:       steps,
			Seed:        opt.Seed,
			NewDatabase: opt.NewDatabase,
			Op:          opt.Op,
			Init:        opt.Init,
		},
		Assign:    a,
		Bandwidth: opt.Bandwidth,
		Workers:   opt.Workers,
		Check:     opt.Check,
		Recorder:  opt.Recorder,
		Faults:    opt.Faults,
		Adapt:     opt.Adapt,
		Telemetry: opt.Telemetry,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	out.Sim = res
	if opt.Recorder != nil {
		info := cfg.ObsInfo(res)
		out.ObsInfo = &info
	}
	return out, nil
}

// foldRing maps line-order index k to a ring node so that ring-adjacent
// nodes are at most two line positions apart: 0, m-1, 1, m-2, 2, ...
func foldRing(k, m int) int {
	if k%2 == 0 {
		return k / 2
	}
	return m - 1 - (k-1)/2
}

// Simulate runs OVERLAP on an arbitrary connected host network by first
// embedding a linear array with dilation 3 (Section 4).
func Simulate(g *network.Network, opt Options) (*Outcome, error) {
	line, err := embedding.Embed(g, 0)
	if err != nil {
		return nil, err
	}
	out, err := SimulateLine(line.Delays, opt)
	if err != nil {
		return nil, err
	}
	es := line.Stats(g)
	out.Dilation = es.Dilation
	out.Inflation = es.Inflation
	return out, nil
}

// Efficiency reports host work per guest work: HostSteps * liveProcs /
// GuestWork. A work-preserving simulation keeps this O(1).
func (o *Outcome) Efficiency() float64 {
	if o.Sim == nil || o.Sim.GuestWork == 0 {
		return 0
	}
	return float64(o.Sim.HostSteps) * float64(o.LiveProcs) / float64(o.Sim.GuestWork)
}
