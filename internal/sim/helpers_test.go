package sim

import "fmt"

// Route-table helpers that only tests use: the engine walks chains
// incrementally and trusts buildRoutes' construction.

// destsOf decodes route id's destination positions in travel order.
// The hot path walks the chain incrementally instead.
func (rt *routeTable) destsOf(id int32) []int32 {
	r := &rt.routes[id]
	out := make([]int32, r.n)
	pos := r.sender
	for j := int32(0); j < r.n; j++ {
		delta := rt.chainArena[r.off+2*j]
		if r.dir > 0 {
			pos += delta
		} else {
			pos -= delta
		}
		out[j] = pos
	}
	return out
}

// destDenseOf decodes route id's per-destination dense store indexes,
// parallel to destsOf.
func (rt *routeTable) destDenseOf(id int32) []int32 {
	r := &rt.routes[id]
	out := make([]int32, r.n)
	for j := int32(0); j < r.n; j++ {
		out[j] = rt.chainArena[r.off+2*j+1]
	}
	return out
}

// validate double-checks structural soundness. Positive deltas make chains strictly monotone by
// construction, so the checks mirror the old per-destination ordering
// checks exactly.
func (rt *routeTable) validate(hostN int) error {
	for i := range rt.routes {
		r := &rt.routes[i]
		if r.n == 0 {
			return fmt.Errorf("sim: route %d has no destinations", i)
		}
		if r.off < 0 || int(r.off+2*r.n) > len(rt.chainArena) {
			return fmt.Errorf("sim: route %d chain span [%d, %d) outside arena", i, r.off, r.off+2*r.n)
		}
		pos := r.sender
		for j := int32(0); j < r.n; j++ {
			delta := rt.chainArena[r.off+2*j]
			if delta < 1 {
				return fmt.Errorf("sim: route %d hop %d has non-positive delta %d", i, j, delta)
			}
			if r.dir > 0 {
				pos += delta
			} else {
				pos -= delta
			}
			if pos < 0 || int(pos) >= hostN {
				return fmt.Errorf("sim: route %d dest %d out of range", i, pos)
			}
			if rt.chainArena[r.off+2*j+1] < 0 {
				return fmt.Errorf("sim: route %d hop %d has negative dense index", i, j)
			}
		}
	}
	return nil
}
