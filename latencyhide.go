// Package latencyhide is a Go implementation of Andrews, Leighton, Metaxas
// and Zhang, "Improved Methods for Hiding Latency in High Bandwidth
// Networks" (SPAA 1996): automatic latency hiding for the database model of
// computation on networks of workstations (NOWs) with arbitrary link delays.
//
// The package is a facade over the subsystems in internal/: host topologies
// (internal/network), the guest database model (internal/guest), the
// interval tree and database assignments (internal/tree, internal/assign),
// the latency/bandwidth-accurate simulation engines (internal/sim), the
// dilation-3 line embedding (internal/embedding), algorithm OVERLAP end to
// end (internal/overlap), the Theorem 4 uniform-delay schedule
// (internal/uniform), 2-D array emulation (internal/mesharray), 1-D layouts
// of arbitrary guests (internal/layout), the dataflow model of [2]
// (internal/dataflow), the lower-bound machinery (internal/lower),
// prior-approach baselines (internal/baseline) and the experiment harness
// (internal/expt).
//
// Quick start — simulate a unit-delay linear array on a random NOW:
//
//	host := latencyhide.RandomNOW(256, 4, latencyhide.ExpDelay{Mean: 3}, 1)
//	out, err := latencyhide.Simulate(host, latencyhide.Options{
//		Variant: latencyhide.TwoLevel,
//		Steps:   64,
//		Check:   true,
//	})
//	fmt.Printf("guest %d cols, slowdown %.1f\n", out.GuestCols, out.Sim.Slowdown)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package latencyhide

import (
	"io"

	"latencyhide/internal/assign"
	"latencyhide/internal/baseline"
	"latencyhide/internal/dataflow"
	"latencyhide/internal/embedding"
	"latencyhide/internal/expt"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/layout"
	"latencyhide/internal/mesharray"
	"latencyhide/internal/network"
	"latencyhide/internal/overlap"
	"latencyhide/internal/sim"
	"latencyhide/internal/uniform"
	"latencyhide/internal/verify"
)

// Network is a host network of workstations with arbitrary link delays.
type Network = network.Network

// DelaySource generates link delays for topology constructors.
type DelaySource = network.DelaySource

// Delay distributions.
type (
	// ConstDelay gives every link the same delay.
	ConstDelay = network.ConstDelay
	// UniformDelay draws delays uniformly from a range.
	UniformDelay = network.UniformDelay
	// BimodalDelay mixes fast local links with rare slow long-haul links.
	BimodalDelay = network.BimodalDelay
	// ParetoDelay draws heavy-tailed delays.
	ParetoDelay = network.ParetoDelay
	// ExpDelay draws exponentially distributed delays.
	ExpDelay = network.ExpDelay
)

// Topology constructors.
var (
	// NewNetwork returns an empty host with n workstations.
	NewNetwork = network.New
	// Line builds a host linear array.
	Line = network.Line
	// LineDelays builds a host linear array from explicit link delays.
	LineDelays = network.LineDelays
	// Ring builds a host ring.
	Ring = network.Ring
	// Mesh2D builds a host grid.
	Mesh2D = network.Mesh2D
	// Torus2D builds a host torus.
	Torus2D = network.Torus2D
	// Hypercube builds a host hypercube.
	Hypercube = network.Hypercube
	// CompleteBinaryTree builds a host tree.
	CompleteBinaryTree = network.CompleteBinaryTree
	// RandomNOW builds a connected random bounded-degree NOW.
	RandomNOW = network.RandomNOW
	// CCC builds a cube-connected-cycles host (degree exactly 3).
	CCC = network.CCC
	// H1 builds the Theorem 9 lower-bound host.
	H1 = network.H1
	// H2 builds the Theorem 10 level-box lower-bound host.
	H2 = network.H2
	// CliqueChain builds the Section 4 unbounded-degree counterexample.
	CliqueChain = network.CliqueChain
)

// Options configures an OVERLAP simulation; see internal/overlap.
type Options = overlap.Options

// Variant selects the OVERLAP flavour.
type Variant = overlap.Variant

// OVERLAP variants (Theorems 2, 3 and 5).
const (
	LoadOne       = overlap.LoadOne
	WorkEfficient = overlap.WorkEfficient
	TwoLevel      = overlap.TwoLevel
)

// Outcome bundles an OVERLAP run's measurements.
type Outcome = overlap.Outcome

// Simulate runs OVERLAP on an arbitrary connected host (Theorem 6): it
// embeds a linear array with dilation 3 and simulates a unit-delay guest
// linear array on it (a guest ring with Options.Ring).
func Simulate(host *Network, opt Options) (*Outcome, error) {
	return overlap.Simulate(host, opt)
}

// SimulateLine runs OVERLAP on a host that is already a linear array.
func SimulateLine(delays []int, opt Options) (*Outcome, error) {
	return overlap.SimulateLine(delays, opt)
}

// EmbedLine computes the dilation-3 one-to-one line embedding of a connected
// host (Fact 3), rooted at node 0.
func EmbedLine(host *Network) (*embedding.Line, error) {
	return embedding.Embed(host, 0)
}

// UniformResult reports a Theorem 4 phase-scheduled run.
type UniformResult = uniform.Result

// SimulateUniform runs the Theorem 4 schedule: a guest of hostN*sqrt(d)
// columns on a hostN-processor array whose links all have delay d, for
// batches*sqrt(d) guest steps, verifying every database replica.
func SimulateUniform(hostN, d, batches int, seed int64) (*UniformResult, error) {
	return uniform.Run(hostN, d, batches, 0, seed)
}

// MeshOptions configures 2-D array emulation; see internal/mesharray.
type MeshOptions = mesharray.Options

// MeshResult reports a 2-D array emulation run.
type MeshResult = mesharray.Result

// SimulateMeshOnNOW emulates a 2-D guest array on an arbitrary connected
// host (Theorem 8).
func SimulateMeshOnNOW(host *Network, opt MeshOptions) (*MeshResult, error) {
	return mesharray.OnNOW(host, opt)
}

// SimulateMeshOnUniformLine emulates a 2-D guest array on a uniform-delay
// host line (Theorem 7).
func SimulateMeshOnUniformLine(hostN, d, cols int, opt MeshOptions) (*MeshResult, error) {
	return mesharray.OnUniformLine(hostN, d, cols, opt)
}

// BaselineResult reports a prior-approach baseline run.
type BaselineResult = baseline.Result

// SingleCopyBaseline simulates the natural no-redundancy approach on a host
// line (the Theorem 9 regime).
func SingleCopyBaseline(delays []int, columns, steps int, seed int64) (*BaselineResult, error) {
	return baseline.SingleCopy(delays, columns, steps, seed, false)
}

// SlowClockSlowdown is the analytic slowdown of clocking the whole host at
// its maximum latency.
func SlowClockSlowdown(delays []int) float64 {
	return baseline.SlowClockSlowdown(delays)
}

// Assignment maps guest databases to the host workstations replicating
// them.
type Assignment = assign.Assignment

// Assignment constructors for raw-engine use.
var (
	// AssignmentFromOwned builds an assignment from per-workstation
	// column lists.
	AssignmentFromOwned = assign.FromOwned
	// SingleCopyBlocks is the natural no-redundancy assignment.
	SingleCopyBlocks = assign.SingleCopyBlocks
	// UniformBlocks is the Theorem 4 overlapping block assignment.
	UniformBlocks = assign.UniformBlocks
)

// SimConfig exposes the raw engine for custom guests and assignments.
type SimConfig = sim.Config

// SimResult is the raw engine measurement.
type SimResult = sim.Result

// RunSimulation executes a raw engine configuration.
func RunSimulation(cfg SimConfig) (*SimResult, error) {
	return sim.Run(cfg)
}

// GuestSpec describes a guest computation in the database model.
type GuestSpec = guest.Spec

// GuestOp is a pluggable per-pebble computation (see guest.Op).
type GuestOp = guest.Op

// GuestReference runs the sequential unit-delay reference executor and
// returns every pebble value — ground truth for host simulations and the
// way applications read out results after a verified run.
var GuestReference = guest.Run

// Database is one guest processor's local memory.
type Database = guest.Database

// Guest topology constructors.
var (
	// NewGuestLine builds a unit-delay guest linear array.
	NewGuestLine = guest.NewLinearArray
	// NewGuestRing builds a unit-delay guest ring.
	NewGuestRing = guest.NewRing
	// NewGuestMesh builds a unit-delay guest 2-D array.
	NewGuestMesh = guest.NewMesh
	// NewMixDB is the fast digest-state database factory.
	NewMixDB = guest.NewMixDB
	// KVFactory returns a key-value store database factory.
	KVFactory = guest.KVFactory
)

// Guest topology constructors for the Section 7 targets.
var (
	// NewGuestBinaryTree builds a complete binary tree guest.
	NewGuestBinaryTree = guest.NewBinaryTree
	// NewGuestHypercube builds a hypercube guest.
	NewGuestHypercube = guest.NewHypercube
	// NewGuestButterfly builds a butterfly guest (the FFT pattern).
	NewGuestButterfly = guest.NewButterfly
	// NewGuestArrayND builds a d-dimensional array guest.
	NewGuestArrayND = guest.NewArrayND
	// NewGuestTorus2D builds a torus guest.
	NewGuestTorus2D = guest.NewTorus2D
)

// GuestLayout is a one-to-one arrangement of guest nodes along a line; see
// internal/layout for constructors (BFS, Bisection, Gray, InOrder, ...).
type GuestLayout = layout.Layout

// GuestLayoutOptions configures a general-guest simulation.
type GuestLayoutOptions = layout.Options

// GuestLayoutResult reports a general-guest run.
type GuestLayoutResult = layout.Result

// Layout constructors.
var (
	// LayoutBFS is a Cuthill-McKee-style locality layout for any guest.
	LayoutBFS = layout.BFS
	// LayoutIdentity is the natural id-order layout.
	LayoutIdentity = layout.Identity
	// LayoutInOrder is the in-order layout for binary trees.
	LayoutInOrder = layout.InOrder
	// LayoutGray is the Gray-code layout for hypercubes.
	LayoutGray = layout.Gray
	// LayoutMeasure computes stretch/cutwidth quality metrics.
	LayoutMeasure = layout.Measure
	// LayoutAnneal improves any layout by simulated annealing on edge
	// stretch.
	LayoutAnneal = layout.Anneal
)

// SimulateGuest runs an arbitrary unit-delay guest (tree, butterfly,
// hypercube, d-dimensional array, ...) on a host line via a 1-D layout —
// the Section 7 direction.
func SimulateGuest(g guest.Graph, l *GuestLayout, delays []int, opt GuestLayoutOptions) (*GuestLayoutResult, error) {
	return layout.Simulate(g, l, delays, opt)
}

// SimulateGuestOnNOW embeds a line in the host first (Fact 3).
func SimulateGuestOnNOW(g guest.Graph, l *GuestLayout, host *Network, opt GuestLayoutOptions) (*GuestLayoutResult, error) {
	return layout.SimulateOnNOW(g, l, host, opt)
}

// DataflowResult reports a dataflow-model diamond-schedule run.
type DataflowResult = dataflow.Result

// SimulateDataflow runs the dataflow model of [2] (no local databases,
// computation migrates instead of replicating) on a uniform-delay host:
// the diamond schedule achieves ~3*sqrt(d) slowdown at replication exactly
// 1 — the contrast with the database model that Section 6 draws.
func SimulateDataflow(hostN, d, batches int, seed int64) (*DataflowResult, error) {
	return dataflow.Run(hostN, d, batches, 0, seed)
}

// OverlapSchedule is the executable s_t^(k) recurrence of Theorem 1; see
// internal/overlap.BuildSchedule.
type OverlapSchedule = overlap.Schedule

// NewNullDB is the dataflow-model database factory (constant digest,
// stateless).
var NewNullDB = guest.NewNullDB

// FaultPlan is a deterministic fault-injection plan: link jitter, outage
// windows, compute slowdowns and crash-stop workstations, all derived by
// pure hashing from the plan seed (see internal/fault).
type FaultPlan = fault.Plan

// ParseFaultPlan reads the compact fault spec format, e.g.
// "7:outage=0.1x8;crash=3@40". Pass the plan via Options.Faults.
var ParseFaultPlan = fault.Parse

// Scenario is a compact, seeded description of one randomized verification
// run: guest shape, host line, delay profile, bandwidth, replication and an
// optional fault plan (see internal/verify).
type Scenario = verify.Scenario

// Scenario constructors: ParseScenario reads the spec format
// ("g=ring:24;n=8;d=uniform:1:9;..."), GenerateScenario derives the i-th
// scenario of a seed's deterministic stream.
var (
	ParseScenario    = verify.Parse
	GenerateScenario = verify.Generate
)

// VerifyReport is the outcome of checking one scenario: the metamorphic
// relations exercised and every invariant violation found.
type VerifyReport = verify.Report

// VerifySoakResult aggregates a verification soak.
type VerifySoakResult = verify.SoakResult

// CheckScenario runs one scenario through the invariant oracle, both
// engines and every applicable metamorphic relation.
func CheckScenario(sc *Scenario) (*VerifyReport, error) {
	return verify.CheckScenario(sc)
}

// VerifySoak generates and checks n scenarios from a seeded stream — the
// library entry point behind `latencysim verify`.
func VerifySoak(seed uint64, n int) (*VerifySoakResult, error) {
	return verify.Soak(seed, n)
}

// ExperimentScale selects Quick or Full experiment sizes.
type ExperimentScale = expt.Scale

// Experiment scales.
const (
	Quick = expt.Quick
	Full  = expt.Full
)

// RunExperiments regenerates every paper table/figure experiment (E1-E19,
// see DESIGN.md's per-experiment index), writing results to w; markdown
// selects the output format.
func RunExperiments(w io.Writer, scale ExperimentScale, markdown bool) error {
	return expt.Write(w, expt.Run(expt.All(), scale, 0, nil), markdown)
}
