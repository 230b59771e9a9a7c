// Package sim is the host simulator: it executes a guest computation in the
// database model (Section 2) on a host linear array with arbitrary link
// delays, charging exactly the paper's communication cost — a message
// injected on a delay-d link at step s is deliverable at step s+d, and each
// directed link injects at most B pebbles per step, so P pebbles cross in
// d + ceil(P/B) - 1 steps.
//
// General bounded-degree hosts are handled upstream by embedding a linear
// array with dilation 3 (Fact 3, package embedding); the engine itself always
// runs on a line, which is how every simulation in the paper is organised.
//
// Execution is greedy dataflow: a host processor holding a replica of
// database b_i computes every pebble (i, t) in step order, as soon as the
// dependency pebbles (i-1, t-1), (i, t-1), (i+1, t-1) are known to it; each
// computed pebble is multicast to the processors that need it but cannot
// compute it themselves. The greedy policy executes any feasible schedule no
// later than the schedule itself up to constants, and keeps the engine
// independent of the particular assignment (OVERLAP, Theorem 4 blocks,
// single-copy baselines, ... all run unmodified).
//
// One driver runs the line as contiguous chunks, one worker each: a
// conservative parallel discrete-event simulation with null-message
// synchronisation and lookahead equal to the boundary link delay
// (parallel.go). A plain run is its one-chunk case. Every cut of the line
// produces bit-identical results; tests assert it.
package sim

import (
	"fmt"
	"math"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// Config describes one host simulation run.
type Config struct {
	// Delays[i] is the delay of host line link (i, i+1); the host has
	// len(Delays)+1 workstations.
	Delays []int
	// Guest is the guest computation (graph, steps, seed, databases).
	Guest guest.Spec
	// Assign maps guest columns to host positions. Assign.HostN must equal
	// len(Delays)+1 and Assign.Columns must equal the guest node count.
	Assign *assign.Assignment
	// Bandwidth is the number of pebbles each directed link can inject per
	// step. Zero means the paper's high-bandwidth assumption,
	// max(1, ceil(log2 hostN)).
	Bandwidth int
	// ComputePerStep is how many pebbles one workstation computes per
	// step; zero means 1 (the paper's model).
	ComputePerStep int
	// MaxSteps aborts runs that exceed it (a stall safety net); zero
	// picks a generous default derived from the work and delay volume.
	MaxSteps int64
	// Workers is the number of chunks the line is cut into, one worker
	// goroutine each, at most one per two hosts. 0 and 1 both mean one
	// chunk, run on the caller's goroutine.
	Workers int
	// Check verifies every database replica's final digest against the
	// sequential reference executor.
	Check bool
	// Recorder, when non-nil, receives the run's structured event stream
	// (package obs). Chunks buffer their events and, after the run, the
	// merged stream is appended to Recorder in canonical order, so it is
	// bit-identical for every chunk count. Nil costs nothing.
	Recorder *obs.Buffer
	// Faults, when non-nil, injects the plan's deterministic faults (link
	// jitter, link outages, host slowdowns, crash-stop hosts — see
	// internal/fault and faults.go). Crash-stop hosts are excluded from
	// routing up front; if that orphans a column (no surviving replica),
	// Run fails fast with *UncomputableError. Nil or empty plans are a true
	// no-op.
	Faults *fault.Plan
	// Adapt, when enabled, runs the adaptive replication controller
	// (internal/adapt): dormant standby replicas are provisioned at build
	// time and activated at epoch boundaries when the stall forensics blame
	// a column past the policy threshold. Fully deterministic: adaptive runs
	// stay bit-identical across worker counts (see adapt.go).
	Adapt *adapt.Policy
	// Telemetry, when non-nil, receives the figures that depend on the
	// clock or the machine: one telemetry.Shard per chunk, with the chunk's
	// host range. Each chunk pushes its pebble progress every 64 steps;
	// boundary flushes, ring stalls and worker parks are written where they
	// happen. Nil disables it down to a single branch per step.
	// Deterministic work figures are in Result.Work either way.
	Telemetry *telemetry.Registry
	// ast is the resolved adaptive-replication state; set by Run when Adapt
	// is enabled.
	ast *adaptState
}

func (c *Config) hostN() int { return len(c.Delays) + 1 }

func (c *Config) bandwidth() int {
	if c.Bandwidth > 0 {
		return c.Bandwidth
	}
	return max(1, network.Log2Ceil(c.hostN()))
}

func (c *Config) computePerStep() int {
	if c.ComputePerStep > 0 {
		return c.ComputePerStep
	}
	return 1
}

func (c *Config) maxSteps() int64 {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	var total int64
	dmax := 0
	for _, d := range c.Delays {
		total += int64(d)
		dmax = max(dmax, d)
	}
	load := int64(c.Assign.Load())
	t := int64(c.Guest.Steps)
	// Generous: work term + delay term, with headroom.
	cap := 64*(t*(load+1)+int64(dmax)*(t+2)) + 4*total + 1<<16
	return cap
}

// Validate checks the configuration is runnable.
func (c *Config) Validate() error {
	if err := c.Guest.Validate(); err != nil {
		return err
	}
	if c.Assign == nil {
		return fmt.Errorf("sim: nil assignment")
	}
	if c.Assign.HostN != c.hostN() {
		return fmt.Errorf("sim: assignment hosts %d != line size %d", c.Assign.HostN, c.hostN())
	}
	if c.Assign.Columns != c.Guest.Graph.NumNodes() {
		return fmt.Errorf("sim: assignment columns %d != guest nodes %d",
			c.Assign.Columns, c.Guest.Graph.NumNodes())
	}
	for i, d := range c.Delays {
		if d < 1 {
			return fmt.Errorf("sim: link %d has delay %d < 1", i, d)
		}
	}
	// Zero picks each knob's default; a negative value is a mistake, not
	// a request for it.
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"Bandwidth", int64(c.Bandwidth)},
		{"ComputePerStep", int64(c.ComputePerStep)},
		{"MaxSteps", c.MaxSteps},
		{"Workers", int64(c.Workers)},
	} {
		if k.v < 0 {
			return fmt.Errorf("sim: %s = %d is negative", k.name, k.v)
		}
	}
	if err := c.Assign.Validate(); err != nil {
		return err
	}
	if err := c.checkEnvelope(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.hostN()); err != nil {
		return err
	}
	if err := c.Adapt.Validate(); err != nil {
		return err
	}
	return nil
}

// Work is a run's deterministic engine work record; package telemetry owns
// its schema so the run manifest carries the same fields under the same
// names.
type Work = telemetry.Work

// Result reports what a run measured. Every field is deterministic: equal
// configurations give equal Results for any worker count.
// Wall-clock engine mechanics go to Config.Telemetry, and the event stream
// to Config.Recorder.
type Result struct {
	GuestSteps int
	HostSteps  int64   // step at which the last pebble was computed
	Slowdown   float64 // HostSteps / GuestSteps
	Load       int     // max databases per workstation

	PebblesComputed int64   // includes redundant recomputation
	GuestWork       int64   // guest nodes * steps
	Redundancy      float64 // PebblesComputed / GuestWork
	Messages        int64   // pebble transmissions injected into links
	MessageHops     int64   // total link crossings
	DeliveredValues int64
	MaxQueueDepth   int // deepest injection queue seen (bandwidth pressure)

	Bandwidth int
	Checked   bool // final database digests verified against the reference

	// AdaptActivations is how many standby replicas the adaptive controller
	// activated (0 unless Config.Adapt is enabled).
	AdaptActivations int

	// Work holds the engine's remaining work counts and peaks: waiter
	// pool, knowledge rings, calendar overflow and route-table footprint.
	Work Work
}

// ObsInfo builds the static run facts package obs's instruments need
// alongside the event stream, from this configuration and a finished run's
// result.
func (c *Config) ObsInfo(res *Result) obs.RunInfo {
	n := c.hostN()
	info := obs.RunInfo{
		HostN:       n,
		GuestSteps:  c.Guest.Steps,
		Delays:      append([]int(nil), c.Delays...),
		Bandwidth:   c.bandwidth(),
		ProcPebbles: make([]int64, n),
		Neighbors:   c.Guest.Graph.Neighbors,
	}
	if res != nil {
		info.HostSteps = res.HostSteps
	}
	for p := 0; p < n; p++ {
		info.ProcPebbles[p] = int64(len(c.Assign.Owned[p])) * int64(c.Guest.Steps)
	}
	return info
}

// Run executes the simulation and returns measurements. It returns an error
// for invalid configurations, stalls (deadlocked dataflow — always an
// assignment/routing bug), exceeded step caps, and fault plans that crash
// every replica of some column (*UncomputableError).
func Run(cfg Config) (*Result, error) { return new(Arena).Run(cfg) }

// Arena is a reusable engine context for callers that run many simulations
// one after another, such as fleet sweeps. Its Run rebuilds a run's state
// inside the memory kept from the arena's earlier runs: the route table and
// its build scratch, one chunk shell per chunk (the calendar ring, the flat
// replica and knowledge-ring arrays, the links and their queues) and the
// driver's records (the shared run state, the workers). Backing memory is
// reused, logical state never is: every slice restarts at length 0 and
// every knowledge ring at initRingSlots, so a run's Result, event stream
// and work counters equal a fresh arena's.
//
// The zero Arena is ready to use. An Arena is not safe for concurrent use,
// and it keeps the footprint of the largest run it has served.
type Arena struct {
	routes routeBuilder
	shells []*chunk
	// The driver's records: the state the workers share, one worker (with
	// its notify channel) per chunk, and a one-chunk run's cut vector.
	run     run
	workers []*worker
	cuts    []int
}

// shell returns the arena's chunk shell i; chunk i of every run is built
// in it.
func (a *Arena) shell(i int) *chunk {
	for len(a.shells) <= i {
		a.shells = append(a.shells, new(chunk))
	}
	return a.shells[i]
}

// reuse returns s resliced to length n, reallocating only when its capacity
// is short. Elements keep whatever an earlier run left in them, so callers
// clear or overwrite them.
func reuse[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// presize returns s emptied, with room for at least n elements.
func presize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Run executes one simulation like the package-level Run, reusing the
// arena's memory.
func (a *Arena) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var crashed []int
	if cfg.Faults != nil {
		crashed = cfg.Faults.CrashedHosts()
		if len(crashed) > 0 {
			if orphans := orphanedColumns(&cfg, crashed); len(orphans) > 0 {
				return nil, &UncomputableError{Columns: orphans, Crashed: crashed}
			}
		}
	}
	if cfg.Adapt.Enabled() {
		cfg.ast = newAdaptState(&cfg, crashed)
	}
	var extra [][]int
	if cfg.ast != nil {
		extra = cfg.ast.extraCols
	}
	routes := a.routes.build(cfg.Guest.Graph, cfg.Assign, crashed, extra)
	if err := routeEnvelope(int64(len(routes.chainArena)), int64(cfg.Assign.Columns)); err != nil {
		return nil, err
	}
	res, err := a.runCuts(&cfg, routes, a.cutLine(&cfg))
	if err != nil {
		return nil, err
	}
	res.GuestSteps = cfg.Guest.Steps
	res.GuestWork = int64(cfg.Guest.Graph.NumNodes()) * int64(cfg.Guest.Steps)
	if cfg.Guest.Steps > 0 {
		res.Slowdown = float64(res.HostSteps) / float64(cfg.Guest.Steps)
	}
	if res.GuestWork > 0 {
		res.Redundancy = float64(res.PebblesComputed) / float64(res.GuestWork)
	}
	res.Load = cfg.Assign.Load()
	res.Bandwidth = cfg.bandwidth()
	return res, nil
}

// EnvelopeError reports a configuration outside the engine's int32
// envelope: the hot state stores guest steps, link codes, neighbor slots,
// route ids, chain offsets and columns as int32, so a value past Limit would
// wrap silently.
type EnvelopeError struct {
	Field string
	Value int64
	Limit int64 // largest accepted value
}

func (e *EnvelopeError) Error() string {
	return fmt.Sprintf("sim: %s = %d exceeds the engine's int32 envelope (max %d)", e.Field, e.Value, e.Limit)
}

// Envelope limits, each the largest value its int32 encoding can carry.
const (
	// maxGuestSteps keeps step T+1 (a finished column's next step) in an
	// int32 generation tag.
	maxGuestSteps = math.MaxInt32 - 1
	// maxHostN keeps the largest link code, pos*2+1, in an int32.
	maxHostN = (math.MaxInt32 + 1) / 2
	// maxProcSlots bounds one workstation's neighbor slots (ownedCol.nbOff).
	maxProcSlots = math.MaxInt32
	// maxReplicas bounds the route ids: a column's holder sends at most one
	// route each way, so routes <= 2*replicas must fit ownedCol.rtOff.
	maxReplicas = math.MaxInt32 / 2
	// maxChainArena keeps every chain index, routeRec.off + 2*di, in an
	// int32.
	maxChainArena = math.MaxInt32
	// maxColumns keeps a column id (routeRec.col, ownedCol.col) in an int32.
	maxColumns = math.MaxInt32
)

// checkEnvelope rejects configurations whose guest steps, host size,
// per-workstation neighbor slots or route count overflow int32.
func (c *Config) checkEnvelope() error {
	var replicas, maxSlots int64
	for _, cols := range c.Assign.Owned {
		var slots int64
		for _, col := range cols {
			slots += int64(len(c.Guest.Graph.Neighbors(col)))
		}
		replicas += int64(len(cols))
		maxSlots = max(maxSlots, slots)
	}
	return envelope(int64(c.Guest.Steps), int64(c.hostN()), maxSlots, replicas)
}

// envelope checks the int32 limits against the resolved figures.
func envelope(steps, hostN, procSlots, replicas int64) error {
	return firstOver(
		EnvelopeError{"Guest.Steps", steps, maxGuestSteps},
		EnvelopeError{"host positions", hostN, maxHostN},
		EnvelopeError{"neighbor slots on one workstation", procSlots, maxProcSlots},
		EnvelopeError{"replicas", replicas, maxReplicas},
	)
}

// routeEnvelope checks the sizes known only once the route table is built:
// the chain arena's length and the column count.
func routeEnvelope(arena, columns int64) error {
	return firstOver(
		EnvelopeError{"route chain arena entries", arena, maxChainArena},
		EnvelopeError{"columns", columns, maxColumns},
	)
}

// firstOver returns the first figure past its limit, or nil.
func firstOver(fs ...EnvelopeError) error {
	for i := range fs {
		if fs[i].Value > fs[i].Limit {
			f := fs[i] // copied only here, so the loop allocates nothing
			return &f
		}
	}
	return nil
}
