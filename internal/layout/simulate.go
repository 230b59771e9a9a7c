package layout

import (
	"fmt"

	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/sim"
	"latencyhide/internal/tree"
)

// Options configures a general-guest simulation.
type Options struct {
	// Steps is the number of guest steps; must be >= 1.
	Steps int
	Seed  int64
	// SlotsPerUnit is how many layout slots each tree unit covers; zero
	// means ceil(guestNodes / n') so the whole guest fits.
	SlotsPerUnit int
	// Bandwidth, Workers, Check pass through to the engine.
	Bandwidth int
	Workers   int
	Check     bool
	// NewDatabase, Op and Init override the guest computation.
	NewDatabase guest.Factory
	Op          guest.Op
	Init        func(node int, seed int64) uint64
}

// Result reports a general-guest run.
type Result struct {
	Guest   string
	Layout  string
	Metrics Metrics
	Sim     *sim.Result
	// GuestNodes actually simulated (= the guest size).
	GuestNodes int
	HostN      int
}

// Simulate runs an arbitrary unit-delay guest on a host line with the given
// link delays: the layout's slots are distributed over the live host
// processors by the Section 3.2 interval-tree recursion (contiguous blocks
// with sibling overlaps), and the engine executes greedily with full value
// verification available.
func Simulate(g guest.Graph, l *Layout, delays []int, opt Options) (*Result, error) {
	if g.NumNodes() != len(l.Order) {
		return nil, fmt.Errorf("layout: guest has %d nodes, layout %d slots", g.NumNodes(), len(l.Order))
	}
	if opt.Steps < 1 {
		return nil, fmt.Errorf("layout: steps %d < 1", opt.Steps)
	}
	tr := tree.Build(delays, 4)
	if err := tr.CheckLemmas(); err != nil {
		return nil, err
	}
	units, nUnits := assign.TreeUnits(tr)
	if nUnits == 0 {
		return nil, fmt.Errorf("layout: no live host processors")
	}
	slots := g.NumNodes()
	spu := opt.SlotsPerUnit
	if spu == 0 {
		spu = (slots + nUnits - 1) / nUnits
	}
	hostN := len(delays) + 1
	owned := make([][]int, hostN)
	for p, us := range units {
		seen := make(map[int]bool)
		for _, u := range us {
			lo, hi := u*spu, (u+1)*spu
			if lo >= slots {
				continue
			}
			if hi > slots {
				hi = slots
			}
			for s := lo; s < hi; s++ {
				node := l.Order[s]
				if !seen[node] {
					seen[node] = true
					owned[p] = append(owned[p], node)
				}
			}
		}
	}
	// If nUnits*spu < slots (rounding), tack the tail onto the last live
	// processor so every database has a holder.
	if nUnits*spu < slots {
		last := -1
		for p := hostN - 1; p >= 0; p-- {
			if len(owned[p]) > 0 {
				last = p
				break
			}
		}
		if last < 0 {
			return nil, fmt.Errorf("layout: empty assignment")
		}
		seen := make(map[int]bool, len(owned[last]))
		for _, v := range owned[last] {
			seen[v] = true
		}
		for s := nUnits * spu; s < slots; s++ {
			if node := l.Order[s]; !seen[node] {
				owned[last] = append(owned[last], node)
			}
		}
	}
	a, err := assign.FromOwned(hostN, slots, owned)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		Delays: delays,
		Guest: guest.Spec{
			Graph:       g,
			Steps:       opt.Steps,
			Seed:        opt.Seed,
			NewDatabase: opt.NewDatabase,
			Op:          opt.Op,
			Init:        opt.Init,
		},
		Assign:    a,
		Bandwidth: opt.Bandwidth,
		Workers:   opt.Workers,
		Check:     opt.Check,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Guest:      g.Name(),
		Layout:     l.Name,
		Metrics:    Measure(g, l),
		Sim:        res,
		GuestNodes: slots,
		HostN:      hostN,
	}, nil
}

// SimulateOnNOW embeds a line in an arbitrary connected host (Fact 3) and
// runs Simulate on it.
func SimulateOnNOW(g guest.Graph, l *Layout, host *network.Network, opt Options) (*Result, error) {
	line, err := embedding.Embed(host, 0)
	if err != nil {
		return nil, err
	}
	return Simulate(g, l, line.Delays, opt)
}
