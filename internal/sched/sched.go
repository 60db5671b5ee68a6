// Package sched turns transfer ordering into a pluggable policy space.
//
// The paper's central claim is that *which order* parameters cross the
// network in is the lever behind TicTac's speedups — TIC (§4.2) and TAC
// (§4.3) are just two points in a much larger space of ordering heuristics.
// This package makes that space explorable: a scheduling policy is anything
// that maps a worker partition (and, optionally, a platform cost model) to a
// core.Schedule, and a fixed name table lets every consumer layer — the
// simulator, the cluster builder, the real PS runtime and the bench
// experiments — select policies by name instead of hard-coding the TIC/TAC
// pair.
//
// Adding a new ordering idea is a ~50-line drop-in: implement Policy, add
// one entry to the table in registry.go, and the -policy flags of
// cmd/tictac and cmd/tictac-sim and the "shootout" experiment pick it up
// automatically.
//
// The built-in policies are:
//
//   - tic            — Timing-Independent Communication (Algorithm 2)
//   - tac            — Timing-Aware Communication (Algorithm 3); consumes a
//     traced time oracle when one is available (see OracleOrderer)
//   - random         — a seeded uniformly random total order; a deterministic
//     stand-in for stock TensorFlow's arbitrary per-iteration orders (§2.2)
//     and the normalization baseline of the shootout experiment
//   - fifo           — graph insertion order (the order recv ops were built)
//   - revtopo        — reverse deterministic topological order
//   - smallest-first — ascending transfer size in bytes
//   - critical-path  — descending downstream-compute critical path (a
//     TAC-like greedy that needs no timing oracle: FLOPs stand in for time)
//
// Every policy is deterministic for a fixed seed: two calls with the same
// graph and seed produce byte-identical schedules, which the parallel bench
// engine relies on.
//
// Most policies go further: their order is a pure function of the
// partition, like the paper's TIC (§4.2), which it computes once, offline
// (§5). They declare it by implementing PartitionOnly, and
// cluster.ComputeSchedule then shares one order per cluster graph across
// every seed and platform instead of ordering on every call. tic, fifo,
// revtopo, smallest-first and critical-path declare it. tac does not,
// because the seed drives the traced warmup its oracle is estimated from,
// and neither does random, whose order is a shuffle seeded by the
// factory.
package sched

import (
	"fmt"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/timing"
)

// Policy is one transfer-ordering heuristic. Implementations must be
// stateless apart from construction-time parameters (e.g. a seed): Order may
// be called concurrently from the parallel bench engine.
type Policy interface {
	// Name returns the table selector of the policy (e.g. "tic").
	Name() string
	// Order computes a transfer schedule over the worker partition g. plat
	// supplies the platform's analytic cost model for timing-aware policies;
	// timing-independent policies ignore it, and it may be nil for them.
	Order(g *graph.Graph, plat *timing.Platform) (*core.Schedule, error)
}

// OracleOrderer is implemented by timing-aware policies that can consume a
// measured time oracle — e.g. one estimated from warmup traces by the
// tracing module (§5) — instead of the platform's analytic cost model.
// cluster.ComputeSchedule prefers this path when available, reproducing the
// paper's offline trace→estimate→order pipeline.
type OracleOrderer interface {
	// OrderWithOracle computes the schedule under the given time oracle.
	OrderWithOracle(g *graph.Graph, oracle timing.Oracle) (*core.Schedule, error)
}

// PartitionOnly is implemented by policies whose schedule is a pure
// function of the worker partition: their factory ignores the seed and
// their Order ignores the platform, so every seed and every platform over
// one partition yields the same schedule. cluster.ComputeSchedule relies
// on it to share one read-only schedule per cluster graph. A policy whose
// order reads the seed or the platform must not implement it.
type PartitionOnly interface {
	Policy
	// PartitionOnly declares the contract; it does nothing.
	PartitionOnly()
}

// recvsInGraphOrder returns the partition's recv ops in graph insertion
// order (ascending op ID) — the deterministic base order every heuristic
// permutes.
func recvsInGraphOrder(g *graph.Graph) []*graph.Op {
	return g.OpsOfKind(graph.Recv)
}

// fromOrderedRecvs builds a normalized Schedule from recv ops listed in
// priority order: position i becomes both the rank and the total-order slot
// of the i-th recv's transfer key. It rejects partitions where two recvs
// share a transfer key, mirroring core.TIC/core.TAC.
func fromOrderedRecvs(name string, recvs []*graph.Op) (*core.Schedule, error) {
	s := &core.Schedule{Algorithm: core.Algorithm(name), Rank: make(map[string]int, len(recvs))}
	for i, op := range recvs {
		key := core.Key(op)
		if _, dup := s.Rank[key]; dup {
			return nil, fmt.Errorf("sched: duplicate transfer key %q in partition", key)
		}
		s.Rank[key] = i
		s.Order = append(s.Order, key)
	}
	return s, nil
}
