package verify

import (
	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/twin"
)

// TwinStats computes the analytical twin's topology statistics for the
// scenario without running any engine (see TwinStatsOf). The fleet harness
// feeds these to twin.Classify/Predict and joins them against measured
// slowdowns.
func (s *Scenario) TwinStats() (twin.Stats, error) {
	g, err := s.Graph()
	if err != nil {
		return twin.Stats{}, err
	}
	a, err := s.Assignment(g.NumNodes())
	if err != nil {
		return twin.Stats{}, err
	}
	return TwinStatsOf(g, a, s.Delays(), s.Rep, s.Steps, s.BW), nil
}

// TwinStatsOf computes the twin's statistics of guest g under assignment a
// on the host line with the given link delays: the line summary (d_ave,
// d_max, realized bandwidth, bw < 1 meaning the engine's default), the
// assignment load, and the generalised ping-pong propagation floors over
// the guest graph (see internal/twin).
func TwinStatsOf(g guest.Graph, a *assign.Assignment, delays []int, rep, steps, bw int) twin.Stats {
	hosts := len(delays) + 1
	st := twin.Stats{
		Hosts: hosts, Cols: g.NumNodes(), Load: a.Load(),
		Rep: rep, Steps: steps, Bandwidth: bw,
	}
	if st.Bandwidth < 1 {
		st.Bandwidth = max(1, network.Log2Ceil(hosts)) // the engine's default
	}
	var sum float64
	for _, d := range delays {
		sum += float64(d)
		st.DMax = max(st.DMax, d)
	}
	if len(delays) > 0 {
		st.DAve = sum / float64(len(delays))
	}
	st.PropFloor, st.CertFloor = twin.Floors(g, a.Holders, delays, steps)
	return st
}

// StripDynamics returns a copy of the scenario with the fault plan and
// the adaptive-replication policy removed. The twin models the fault-free
// protocol (its floors assume links deliver at their nominal delays), so
// the fleet corpus strips dynamics before measuring; adversarial regimes
// keep their own validation in E13/E18 and `verify -chaos`.
func (s *Scenario) StripDynamics() *Scenario {
	c := *s
	c.Faults = nil
	c.Adapt = nil
	return &c
}
