package cluster

import (
	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/sim"
)

// simView is the cluster graph compiled for the simulator's summary run.
// It depends only on the graph, so it is built once per graph and shared
// by every WithPlatforms child; the cost table, which depends on the
// platform, is per Cluster (see costTable). It holds no op: everything a
// run reads is a table indexed by op ID.
type simView struct {
	runner *sim.Runner

	// groups maps op ID → factor group. A group is one (device, transfer
	// or not, parameter shard) combination. Every duration multiplier and
	// mask the cluster applies — straggler windows on a worker's compute,
	// contention on transfers, degraded shards, departed workers — is a
	// function of those three, so a per-iteration table of a few dozen
	// entries replaces a per-op closure over string-keyed maps.
	groups  []int32
	workers int
	ps      int

	// workerDev maps worker index → Runner device index (-1 = no ops).
	workerDev []int

	// The reference worker partition (worker 0, first iteration) flattened
	// for the efficiency metric: its ops as full-graph IDs in reference-op
	// order, and the same IDs grouped by resource (effResOff delimits the
	// groups in effByRes, reference-op order within each).
	effOps    []int32
	effByRes  []int32
	effResOff []int32
}

// newSimView builds the view of c's graph.
func newSimView(c *Cluster) (*simView, error) {
	g, err := c.graph()
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(g)
	if err != nil {
		return nil, err
	}
	workers, ps := c.Config.Workers, c.Config.PS
	devices := make(map[string]int, workers+ps)
	for w := 0; w < workers; w++ {
		devices[WorkerDevice(w)] = w
	}
	for j := 0; j < ps; j++ {
		devices[PSDevice(j)] = workers + j
	}
	ops := g.Ops()
	v := &simView{
		runner:    runner,
		groups:    make([]int32, len(ops)),
		workers:   workers,
		ps:        ps,
		workerDev: make([]int, workers),
	}
	for _, op := range ops {
		d, ok := devices[op.Device]
		if !ok {
			d = workers + ps
		}
		shard := 0
		if op.Param != "" {
			shard = c.Shard[op.Param] + 1
		}
		transfer := op.Kind == graph.Recv || op.Kind == graph.Send
		v.groups[op.ID] = int32(v.group(d, transfer, shard))
	}
	for w := range v.workerDev {
		v.workerDev[w] = runner.DeviceIndex(WorkerDevice(w))
	}

	prefix, ref := c.refPrefix(), WorkerDevice(0)
	resIndex := map[string]int{}
	var perRes [][]int32
	for _, op := range ops {
		if op.Device != ref || len(op.Name) <= len(prefix) || op.Name[:len(prefix)] != prefix {
			continue // other devices, or other iterations of a chained graph
		}
		v.effOps = append(v.effOps, int32(op.ID))
		k, ok := resIndex[op.Resource]
		if !ok {
			k = len(perRes)
			resIndex[op.Resource] = k
			perRes = append(perRes, nil)
		}
		perRes[k] = append(perRes[k], int32(op.ID))
	}
	v.effResOff = make([]int32, 0, len(perRes)+1)
	for _, ids := range perRes {
		v.effResOff = append(v.effResOff, int32(len(v.effByRes)))
		v.effByRes = append(v.effByRes, ids...)
	}
	v.effResOff = append(v.effResOff, int32(len(v.effByRes)))
	return v, nil
}

// group numbers the combination of device d (workers first, then PS
// devices, then one slot for any other device), transfer flag and shard
// slot (0 = no parameter, j+1 = parameter on PS j).
func (v *simView) group(d int, transfer bool, shard int) int {
	t := 0
	if transfer {
		t = 1
	}
	return (d*2+t)*(v.ps+1) + shard
}

// device is the inverse of group for the device index.
func (v *simView) device(g int) int { return g / (2 * (v.ps + 1)) }

// numGroups is the size of a per-group table.
func (v *simView) numGroups() int { return (v.workers + v.ps + 1) * 2 * (v.ps + 1) }

// factors holds one protocol run's per-group tables, reused across its
// iterations: at most one simulation reads them at a time.
type factors struct {
	scale  []float64
	masked []bool
}

// scaleFor fills the per-group duration multipliers of one simulation:
// the straggler windows active at opts.Iteration on their worker's compute
// ops, contention windows on every transfer, and degraded shards on every
// op of their parameters. It returns nil when nothing scales. Each entry is
// the product the per-op closure this replaces computed for the group's
// ops, factor by factor in the same order, so durations are bit-identical.
//
//tictac:hotpath
func (f *factors) scaleFor(v *simView, opts RunOptions, degraded []float64) []float64 {
	net := 1.0
	for _, cn := range opts.Contention {
		if cn.Factor > 0 && cn.Factor != 1 && cn.active(opts.Iteration) {
			net *= cn.Factor
		}
	}
	windows := net != 1
	for _, s := range opts.Stragglers {
		if s.slows(opts.Iteration) {
			windows = true
		}
	}
	if !windows && degraded == nil {
		return nil
	}
	if f.scale == nil {
		f.scale = make([]float64, v.numGroups())
	}
	for d := 0; d <= v.workers+v.ps; d++ {
		compute := 1.0
		if d < v.workers {
			for _, s := range opts.Stragglers {
				if s.Worker == d && s.slows(opts.Iteration) {
					compute *= s.Factor
				}
			}
		}
		for shard := 0; shard <= v.ps; shard++ {
			for _, transfer := range [2]bool{false, true} {
				x := 1.0
				if windows {
					x = compute
					if transfer {
						x = net
					}
				}
				if degraded != nil && shard > 0 {
					if k := degraded[shard-1]; k != 1 {
						x *= k
					}
				}
				f.scale[v.group(d, transfer, shard)] = x
			}
		}
	}
	return f.scale
}

// maskFor fills the per-group membership mask hiding inactive workers'
// replicas, or returns nil when the whole fleet is active. Masked ops
// release their successors instantly, so parameter-server aggregates that
// fan in across workers never deadlock on a departed worker's sends.
//
//tictac:hotpath
func (f *factors) maskFor(v *simView, active []bool) []bool {
	all := true
	for _, a := range active {
		all = all && a
	}
	if all {
		return nil
	}
	if f.masked == nil {
		f.masked = make([]bool, v.numGroups())
	}
	for g := range f.masked {
		d := v.device(g)
		f.masked[g] = d < v.workers && !active[d]
	}
	return f.masked
}

// observe reads a reported run's summary into it: worker 0's recv order,
// reorder count, worker finish times, straggler effect and efficiency.
// active, when non-nil, limits the straggler effect to the workers that
// ran, and the efficiency is -1 when the reference worker did not run.
// Makespan, ActiveWorkers and the churn fields are the caller's.
//
//tictac:hotpath
func (v *simView) observe(s *sim.Summary, active []bool, it *Iteration) {
	it.ReorderEvents = s.ReorderEvents
	it.RecvOrder = v.recvKeys(s)
	it.WorkerFinish = make([]float64, v.workers)
	minFinish := s.Makespan
	for w, di := range v.workerDev {
		f := 0.0
		if di >= 0 {
			f = s.DeviceFinish[di]
		}
		it.WorkerFinish[w] = f
		if (active == nil || active[w]) && f < minFinish {
			minFinish = f
		}
	}
	if s.Makespan > 0 {
		it.StragglerPct = (s.Makespan - minFinish) / s.Makespan * 100
	}
	if active == nil || active[0] {
		it.Efficiency = v.efficiency(s)
	} else {
		// The reference worker did not run; the efficiency metric is
		// undefined this iteration. Aggregates skip the sentinel.
		it.Efficiency = -1
	}
}

// recvKeys returns worker 0's recv transfer keys in dispatch order, or nil
// when it dispatched none. model.BuildWorker tags every recv with its
// parameter, which is its transfer key, so the Runner's key index holds
// every one.
//
//tictac:hotpath
func (v *simView) recvKeys(s *sim.Summary) []string {
	di := v.workerDev[0]
	if di < 0 {
		return nil
	}
	ids := s.RecvOrder(di)
	if len(ids) == 0 {
		return nil
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = v.runner.TransferKey(id)
	}
	return keys
}

// efficiency computes E on the worker-0 partition using the iteration's
// measured per-op durations, mirroring §3.2 ("for a given iteration, we
// measure runtime of each op as well as the makespan of that iteration and
// then calculate the bounds"). It is core.Efficiency over the reference
// partition with the measured durations as the oracle, evaluated on the
// precomputed index: the upper bound sums durations in reference-op order,
// each resource's load sums its ops in the same order, and a masked op
// contributes nothing (no duration, no interval) — so the floats match the
// graph-and-map evaluation bit for bit.
//
//tictac:hotpath
func (v *simView) efficiency(s *sim.Summary) float64 {
	var start, end, upper float64
	first := true
	for _, id := range v.effOps {
		if !s.Executed(id) {
			continue
		}
		upper += s.End[id] - s.Start[id]
		if first || s.Start[id] < start {
			start = s.Start[id]
			first = false
		}
		if s.End[id] > end {
			end = s.End[id]
		}
	}
	lower := 0.0
	for k := 0; k+1 < len(v.effResOff); k++ {
		load := 0.0
		for _, id := range v.effByRes[v.effResOff[k]:v.effResOff[k+1]] {
			if s.Executed(id) {
				load += s.End[id] - s.Start[id]
			}
		}
		if load > lower {
			lower = load
		}
	}
	return core.EfficiencyFromBounds(upper, lower, end-start)
}
