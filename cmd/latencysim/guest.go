package main

import (
	"flag"
	"fmt"

	"latencyhide/internal/guest"
	"latencyhide/internal/layout"
)

// cmdGuest simulates one of the Section 7 guest families (tree, hypercube,
// butterfly, d-dimensional array, ring) on a host, comparing layouts.
func cmdGuest(args []string) error {
	fs := flag.NewFlagSet("guest", flag.ExitOnError)
	hf := addHostFlags(fs)
	kind := fs.String("guest", "hypercube", "guest family: tree|hypercube|butterfly|array2d|array3d|ring")
	size := fs.Int("gn", 6, "guest size parameter (height/dim/levels/side)")
	steps := fs.Int("steps", 8, "guest steps")
	lay := fs.String("layout", "auto", "layout: auto|bfs|identity|bisection|anneal")
	check := fs.Bool("check", false, "verify against the reference executor")
	workers := fs.Int("workers", 0, "engine chunks, one goroutine each (0 and 1 both mean one chunk)")
	fs.Parse(args)

	var g guest.Graph
	var natural *layout.Layout
	switch *kind {
	case "tree":
		t := guest.NewBinaryTree(*size)
		g, natural = t, layout.InOrder(t)
	case "hypercube":
		h := guest.NewHypercube(*size)
		g, natural = h, layout.Identity(h.NumNodes())
	case "butterfly":
		b := guest.NewButterfly(*size)
		g, natural = b, layout.RankMajor(b)
	case "array2d":
		a := guest.NewArrayND(*size, *size)
		g, natural = a, layout.BFS(a)
	case "array3d":
		a := guest.NewArrayND(*size, *size, *size)
		g, natural = a, layout.BFS(a)
	case "ring":
		r := guest.NewRing(*size)
		g, natural = r, layout.BFS(r)
	default:
		return fmt.Errorf("unknown guest %q", *kind)
	}

	var l *layout.Layout
	switch *lay {
	case "auto":
		l = natural
	case "bfs":
		l = layout.BFS(g)
	case "identity":
		l = layout.Identity(g.NumNodes())
	case "bisection":
		l = layout.Bisection(g, 1)
	case "anneal":
		l = layout.Anneal(g, natural, 1, 0)
	default:
		return fmt.Errorf("unknown layout %q", *lay)
	}

	host, err := hf.build()
	if err != nil {
		return err
	}
	m := layout.Measure(g, l)
	fmt.Printf("host:  %s\n", host)
	fmt.Printf("guest: %s (%d nodes, %d edges)\n", g.Name(), g.NumNodes(), m.Edges)
	fmt.Printf("layout %s: cutwidth=%d max_stretch=%d avg_stretch=%.2f\n",
		l.Name, m.CutWidth, m.MaxStretch, m.AvgStretch)
	r, err := layout.SimulateOnNOW(g, l, host, layout.Options{
		Steps: *steps, Seed: 7, Check: *check, Workers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("run: guest_steps=%d host_steps=%d slowdown=%.2f load=%d redundancy=%.2f\n",
		r.Sim.GuestSteps, r.Sim.HostSteps, r.Sim.Slowdown, r.Sim.Load, r.Sim.Redundancy)
	if r.Sim.Checked {
		fmt.Println("check: all database replicas match the sequential reference executor")
	}
	return nil
}
