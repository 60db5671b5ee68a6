// Package sim is a multi-resource discrete-event executor for partitioned
// computational graphs.
//
// It plays the role of the TensorFlow distributed runtime in the paper's
// evaluation: every device exposes serially-executing resources (a compute
// stream, and one network channel per worker↔PS pair — gRPC serializes
// transfers per channel, §5.1), and each resource picks its next op from a
// ready-to-execute queue. The selection rule is exactly the paper's (§3.1):
// "randomly chooses from among the set of ops that contain the lowest
// priority number and those without any priority number". Without a
// schedule every choice is uniformly random, reproducing the arbitrary
// transfer orders of stock TensorFlow (§2.2).
//
// Two entry points execute a graph:
//
//   - Run is the one-shot convenience API: it builds a Runner and executes
//     once. Cost: the per-graph precomputation is repeated on every call.
//   - Runner is the reusable executor: NewRunner precomputes the graph view
//     (resource index, flat adjacency, transfer keys) once, and every run
//     reuses all per-run buffers. Runner.Summarize executes a Plan (the
//     run's inputs as dense per-op tables) and hands back a Summary read in
//     place, allocating nothing in steady state; the cluster protocol uses
//     it. Runner.Run compiles a Config into a Plan, runs the same event
//     loop and allocates only the returned Result.
//
// All paths are bit-identical: same RNG draw sequence, same floating-point
// arithmetic, same results (see internal/sim/simref and the parity tests).
package sim

import (
	"fmt"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/timing"
)

// Config controls one simulated execution.
type Config struct {
	// Oracle supplies ground-truth op durations (typically
	// Platform.Oracle()). Required.
	Oracle timing.Oracle
	// Schedule, when non-nil, enforces transfer priorities on network
	// channels. Any internal/sched policy (tic, tac, random, ...) produces
	// one; nil reproduces the unscheduled baseline.
	Schedule *core.Schedule
	// Seed seeds the run's random choices (ready-queue tie-breaking,
	// jitter, reorder errors). Runs with equal seeds are identical.
	Seed int64
	// Jitter is the relative standard deviation of measured op durations.
	// Zero disables noise.
	Jitter float64
	// ReorderProb is the probability that a channel dispatches the
	// second-highest-priority ready transfer instead of the first,
	// modelling the gRPC queue inversions observed in §5.1 (≈0.5%).
	ReorderProb float64
	// CostScale, when non-nil, multiplies each op's oracle duration by a
	// per-op factor before jitter is applied — the injection point for
	// transient stragglers and background network contention (see
	// cluster.RunOptions). It must be a pure function; it is consulted once
	// per op and never advances the run's RNG stream, so a nil CostScale
	// and a constant factor of 1 produce bit-identical results.
	CostScale func(op *graph.Op) float64
	// Disabled, when non-nil, masks ops out of the run: a masked op
	// completes in zero simulated time, draws no jitter, records no Span,
	// no recv-order entry and no device finish time, but still satisfies
	// its successors' dependencies. This is the injection point for
	// cluster-membership events (a departed worker's ops vanish without
	// deadlocking the parameter servers that aggregate across workers —
	// see cluster.MembershipEvent). It must be a pure function. Masked
	// ops skip the jitter draw but still participate in the dispatch
	// rule's tie-break draws, so a masked run is deterministic per seed
	// without being stream-aligned with the unmasked run; a nil Disabled
	// is bit-identical to today's behavior.
	Disabled func(op *graph.Op) bool
	// Tracer, when non-nil, records every op's simulated duration, feeding
	// the time-oracle estimator exactly like the paper's tracing module.
	Tracer *timing.Tracer
}

// Span records one op's simulated execution interval.
type Span struct {
	Op    *graph.Op
	Start float64
	End   float64
}

// Result summarizes one simulated iteration.
type Result struct {
	// Makespan is the completion time of the last op (the iteration time).
	Makespan float64
	// Spans lists per-op execution intervals in completion order.
	Spans []Span
	// RecvStartOrder maps device → transfer keys of its recv ops in
	// dispatch order (the observable "order of received parameters", §2.2).
	RecvStartOrder map[string][]string
	// DeviceFinish maps device → finish time of its last op.
	DeviceFinish map[string]float64
	// ReorderEvents counts channel dispatches that violated the schedule
	// because of injected reorder errors.
	ReorderEvents int
}

// Run executes the graph once under the given configuration.
//
// It is a thin compatibility wrapper over NewRunner + Runner.Run; callers
// that execute the same graph repeatedly should hold a Runner and amortize
// the per-graph precomputation.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("sim: Config.Oracle is required")
	}
	r, err := NewRunner(g)
	if err != nil {
		return nil, err
	}
	return r.Run(cfg)
}
