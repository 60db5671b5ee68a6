package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/timing"
)

func init() {
	// Canonical presentation order: the paper's pair first, then the
	// baselines and extensions.
	Register(TIC, func(int64) Policy { return ticPolicy{} })
	Register(TAC, func(int64) Policy { return tacPolicy{} })
	Register(Random, func(seed int64) Policy { return randomPolicy{seed: seed} })
	Register(FIFO, func(int64) Policy { return fifoPolicy{} })
	Register(RevTopo, func(int64) Policy { return revTopoPolicy{} })
	Register(SmallestFirst, func(int64) Policy { return smallestFirstPolicy{} })
	Register(CriticalPath, func(int64) Policy { return criticalPathPolicy{} })
}

// ticPolicy is Timing-Independent Communication scheduling (Algorithm 2),
// ported verbatim onto the Policy interface: it needs only the DAG, so the
// platform is ignored.
type ticPolicy struct{}

// Name implements Policy.
func (ticPolicy) Name() string { return TIC }

// PartitionOnly implements PartitionOnly.
func (ticPolicy) PartitionOnly() {}

// Order implements Policy by delegating to core.TIC.
func (ticPolicy) Order(g *graph.Graph, _ *timing.Platform) (*core.Schedule, error) {
	return core.TIC(g)
}

// tacPolicy is Timing-Aware Communication scheduling (Algorithm 3). Order
// uses the platform's analytic cost model; OrderWithOracle accepts a
// measured oracle (the paper's traced min-of-k estimate), which
// cluster.ComputeSchedule prefers.
type tacPolicy struct{}

// Name implements Policy.
func (tacPolicy) Name() string { return TAC }

// Order implements Policy by feeding the platform's exact-cost oracle to
// core.TAC.
func (tacPolicy) Order(g *graph.Graph, plat *timing.Platform) (*core.Schedule, error) {
	if plat == nil {
		return nil, fmt.Errorf("sched: policy %q needs a platform cost model", TAC)
	}
	return core.TAC(g, plat.Oracle())
}

// OrderWithOracle implements OracleOrderer.
func (tacPolicy) OrderWithOracle(g *graph.Graph, oracle timing.Oracle) (*core.Schedule, error) {
	return core.TAC(g, oracle)
}

// randomPolicy enforces a seeded uniformly random total order. It models
// what stock TensorFlow does nondeterministically every iteration (§2.2) as
// a fixed, reproducible order, making "today's behaviour" a first-class
// baseline the shootout experiment can normalize against.
type randomPolicy struct{ seed int64 }

// Name implements Policy.
func (randomPolicy) Name() string { return Random }

// Order implements Policy with a Fisher-Yates shuffle of the recv set,
// deterministic in the construction seed.
func (p randomPolicy) Order(g *graph.Graph, _ *timing.Platform) (*core.Schedule, error) {
	recvs := append([]*graph.Op(nil), recvsInGraphOrder(g)...)
	rng := rand.New(rand.NewSource(p.seed))
	rng.Shuffle(len(recvs), func(i, j int) { recvs[i], recvs[j] = recvs[j], recvs[i] })
	return fromOrderedRecvs(Random, recvs)
}

// fifoPolicy orders transfers by graph insertion order — the order the
// model builder declared the parameters in, which for the Table 1 models is
// input-to-output layer order.
type fifoPolicy struct{}

// Name implements Policy.
func (fifoPolicy) Name() string { return FIFO }

// PartitionOnly implements PartitionOnly.
func (fifoPolicy) PartitionOnly() {}

// Order implements Policy.
func (fifoPolicy) Order(g *graph.Graph, _ *timing.Platform) (*core.Schedule, error) {
	return fromOrderedRecvs(FIFO, recvsInGraphOrder(g))
}

// revTopoPolicy orders transfers by reverse deterministic topological order
// of the partition — roughly output-to-input layer order, the worst case
// for forward-pass overlap and a useful adversarial baseline.
type revTopoPolicy struct{}

// Name implements Policy.
func (revTopoPolicy) Name() string { return RevTopo }

// PartitionOnly implements PartitionOnly.
func (revTopoPolicy) PartitionOnly() {}

// Order implements Policy.
func (revTopoPolicy) Order(g *graph.Graph, _ *timing.Platform) (*core.Schedule, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	var recvs []*graph.Op
	for i := len(topo) - 1; i >= 0; i-- {
		if topo[i].Kind == graph.Recv {
			recvs = append(recvs, topo[i])
		}
	}
	return fromOrderedRecvs(RevTopo, recvs)
}

// smallestFirstPolicy orders transfers by ascending payload size. Small
// tensors clear the channel quickly and tend to unblock early layers first
// (shortest-job-first applied to parameter transfers); ties keep graph
// order.
type smallestFirstPolicy struct{}

// Name implements Policy.
func (smallestFirstPolicy) Name() string { return SmallestFirst }

// PartitionOnly implements PartitionOnly.
func (smallestFirstPolicy) PartitionOnly() {}

// Order implements Policy.
func (smallestFirstPolicy) Order(g *graph.Graph, _ *timing.Platform) (*core.Schedule, error) {
	recvs := append([]*graph.Op(nil), recvsInGraphOrder(g)...)
	sort.SliceStable(recvs, func(i, j int) bool { return recvs[i].Bytes < recvs[j].Bytes })
	return fromOrderedRecvs(SmallestFirst, recvs)
}

// criticalPathPolicy orders transfers by descending downstream-compute
// critical path: a recv whose dependents sit on a long chain of FLOPs is
// released first, so the expensive computation it gates starts as early as
// possible. This is a TAC-like greedy that needs no timing oracle — graph
// FLOPs stand in for measured op times.
type criticalPathPolicy struct{}

// Name implements Policy.
func (criticalPathPolicy) Name() string { return CriticalPath }

// PartitionOnly implements PartitionOnly.
func (criticalPathPolicy) PartitionOnly() {}

// Order implements Policy.
func (criticalPathPolicy) Order(g *graph.Graph, _ *timing.Platform) (*core.Schedule, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	// cp[id] = op's own FLOPs + the heaviest-FLOPs path below it.
	cp := make([]float64, g.Len())
	for i := len(topo) - 1; i >= 0; i-- {
		op := topo[i]
		best := 0.0
		for _, succ := range op.Out() {
			if cp[succ.ID] > best {
				best = cp[succ.ID]
			}
		}
		cp[op.ID] = float64(op.FLOPs) + best
	}
	recvs := append([]*graph.Op(nil), recvsInGraphOrder(g)...)
	sort.SliceStable(recvs, func(i, j int) bool { return cp[recvs[i].ID] > cp[recvs[j].ID] })
	return fromOrderedRecvs(CriticalPath, recvs)
}
