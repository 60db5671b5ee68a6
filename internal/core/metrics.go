package core

import (
	"tictac/internal/graph"
	"tictac/internal/timing"
)

// Bounds returns the scheduling makespan bounds of §3.2.
//
// Upper (eq. 1) assumes fully sequential execution: the sum of all op times.
// Lower (eq. 2) assumes perfect overlap: the load of the busiest resource.
// Neither is generally achievable (the lower bound ignores DAG
// dependencies), but they bracket every feasible makespan of a
// work-conserving executor.
func Bounds(g *graph.Graph, oracle timing.Oracle) (upper, lower float64) {
	perResource := make(map[string]float64)
	for _, op := range g.Ops() {
		t := oracle.Time(op)
		upper += t
		perResource[op.Resource] += t
	}
	for _, load := range perResource {
		if load > lower {
			lower = load
		}
	}
	return upper, lower
}

// Efficiency returns the Scheduling Efficiency metric E(G, Time, makespan)
// of equation 3:
//
//	E = (U − m) / (U − L)
//
// E = 1 indicates a perfect ordering, E = 0 the worst ordering. When the
// bounds coincide (single resource, or a one-op graph), scheduling cannot
// change the makespan and E is defined as 1.
func Efficiency(g *graph.Graph, oracle timing.Oracle, makespan float64) float64 {
	u, l := Bounds(g, oracle)
	return EfficiencyFromBounds(u, l, makespan)
}

// EfficiencyFromBounds is equation 3 on precomputed bounds (upper u, lower
// l), for callers that evaluate the bounds without a graph and an oracle.
func EfficiencyFromBounds(u, l, makespan float64) float64 {
	if u <= l {
		return 1
	}
	return (u - makespan) / (u - l)
}

// Speedup returns the theoretical maximum speedup S(G, Time) of equation 4:
//
//	S = (U − L) / L
//
// S = 0 means scheduling cannot help (one resource dominates); S = 1 means
// the best schedule could double throughput versus the worst.
func Speedup(g *graph.Graph, oracle timing.Oracle) float64 {
	u, l := Bounds(g, oracle)
	if l <= 0 {
		return 0
	}
	return (u - l) / l
}
