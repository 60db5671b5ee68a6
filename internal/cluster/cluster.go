// Package cluster assembles full Model-Replica + Parameter-Server execution
// graphs (§2.2, Figure 2) and runs synchronized training/inference
// iterations on the discrete-event simulator.
//
// Each worker holds an identical replica of the model's worker DAG; each
// parameter tensor is sharded onto one PS, which hosts the five PS-side ops
// per parameter (variable/read for serving, aggregate/update for training).
// Transfers between a worker and a PS share one serialized channel resource,
// matching gRPC's one-channel-per-worker-PS-pair behaviour (§5.1).
package cluster

import (
	"fmt"
	"sync"
	"weak"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/sim"
	"tictac/internal/timing"
)

// Config describes a cluster experiment setup.
type Config struct {
	// Model is the Table 1 model spec to replicate on every worker.
	Model model.Spec
	// Mode selects training or inference worker graphs.
	Mode model.Mode
	// Workers is the number of worker devices (>= 1).
	Workers int
	// PS is the number of parameter-server devices (>= 1).
	PS int
	// BatchFactor scales the model's standard batch size (×0.5, ×1, ×2 in
	// Figure 10). Zero means 1.
	BatchFactor float64
	// Platform supplies the cost model (EnvG or EnvC). With Platforms set
	// it is the profile every device without an override resolves to.
	Platform timing.Platform
	// Platforms, when non-nil, makes the cluster heterogeneous: per-device
	// Platform overrides and per-channel bandwidth/latency overrides
	// layered over Platform. Build validates every override key against
	// the cluster's actual device tags and channel resources (a typo would
	// otherwise be a silent no-op) and normalizes the map so that
	// Platforms.Default and Platform agree — set either one; if both are
	// set they must describe the same base profile. Nil, or a map with no
	// overrides, is bit-identical to the homogeneous model. Jitter stays a
	// per-run scalar (Platform's, or RunOptions.Jitter): a device
	// override's Jitter field is ignored.
	Platforms *timing.PlatformMap
	// Iterations chains this many back-to-back synchronized iterations into
	// one graph (0 or 1 = single iteration). Iteration k+1's read of a
	// parameter depends on iteration k's update of that parameter, so
	// transfers pipeline per-parameter across the iteration boundary — the
	// steady-state behaviour of a long training job. Throughput metrics
	// divide by the iteration count.
	Iterations int
	// SharedPSNIC switches the network model from one serialized channel
	// per worker↔PS pair (gRPC's queueing, the default and the paper's
	// model) to one serialized queue per PS NIC shared by all workers —
	// the opposite extreme, representing a PS whose single link is the
	// bottleneck. Scheduling contention is global per PS in this mode.
	SharedPSNIC bool
}

func (c Config) iterations() int {
	if c.Iterations < 1 {
		return 1
	}
	return c.Iterations
}

// MaxBatch caps the effective batch, Model.Batch × BatchFactor, that Build
// accepts. At 2^20 samples even VGG-19's backward pass is about 8e16
// FLOPs per worker, far inside the int64 FLOPs of a graph op.
const MaxBatch = 1 << 20

// batchSamples is Model.Batch × BatchFactor before rounding.
func (c Config) batchSamples() float64 {
	f := c.BatchFactor
	if f == 0 {
		f = 1
	}
	return float64(c.Model.Batch) * f
}

// Batch returns the effective per-worker batch: Model.Batch scaled by
// BatchFactor, rounded down, and at least 1. ValidateBatch must pass
// first; above MaxBatch the rounding is meaningless.
func (c Config) Batch() int {
	return max(int(c.batchSamples()), 1)
}

// ValidateBatch rejects an effective batch above MaxBatch. Build calls
// it; the service layer also calls it directly so an oversized batch
// surfaces as a client error before any build work.
func (c Config) ValidateBatch() error {
	if b := c.batchSamples(); !(b <= MaxBatch) {
		return fmt.Errorf("cluster: effective batch %g (batch %d × factor %g) is above the cap of %d",
			b, c.Model.Batch, c.BatchFactor, MaxBatch)
	}
	return nil
}

// Ops returns the exact op count of the graph Build produces: the
// parameter variables once, then per iteration a read per parameter, every
// worker's replica and, when training, an aggregate and an update per
// parameter.
func (c Config) Ops() int {
	p := c.Model.Params
	perIter := p + c.Workers*c.Model.Ops(c.Mode)
	if c.Mode == model.Training {
		perIter += 2 * p
	}
	return p + c.iterations()*perIter
}

// channel returns the serialized channel that carries worker w's transfers
// to and from PS j.
func (c Config) channel(w, j int) string {
	if c.SharedPSNIC {
		return PSDevice(j) + "/net"
	}
	return ChannelResource(w, j)
}

// ValidateOverrides checks every PlatformMap override key against the
// device tags and channel resources this configuration actually builds, and
// every device override against the same sanity bar as the base platform.
// Build calls it; the service layer also calls it directly so an override
// typo surfaces as a client error before any build work is attempted.
func (c Config) ValidateOverrides() error {
	if c.Platforms == nil {
		return nil
	}
	for dev, p := range c.Platforms.Devices {
		if !c.knownDevice(dev) {
			return fmt.Errorf("cluster: platform override for unknown device %q", dev)
		}
		if p.ComputeFLOPS <= 0 || p.NetBandwidth <= 0 {
			return fmt.Errorf("cluster: invalid platform override for device %q", dev)
		}
	}
	for res, cc := range c.Platforms.Channels {
		if !c.knownChannel(res) {
			return fmt.Errorf("cluster: channel override for unknown resource %q", res)
		}
		if cc.Bandwidth < 0 || cc.Latency < 0 {
			return fmt.Errorf("cluster: negative channel override for %q", res)
		}
	}
	return nil
}

func (c Config) knownDevice(dev string) bool {
	for w := 0; w < c.Workers; w++ {
		if dev == WorkerDevice(w) {
			return true
		}
	}
	for j := 0; j < c.PS; j++ {
		if dev == PSDevice(j) {
			return true
		}
	}
	return false
}

func (c Config) knownChannel(res string) bool {
	workers := c.Workers
	if c.SharedPSNIC {
		workers = 1 // every worker shares PS j's one channel
	}
	for w := 0; w < workers; w++ {
		for j := 0; j < c.PS; j++ {
			if res == c.channel(w, j) {
				return true
			}
		}
	}
	return false
}

// Cluster is a built multi-device execution graph plus its metadata.
//
// A Cluster is read-only after Build: RunIteration, Run, ComputeSchedule and
// ReferenceWorker only read the graph, so one Cluster may be shared by
// concurrent goroutines — the parallel bench engine relies on this for the
// repeated-run experiments (Figure 12, unique orders). Simulations run as
// summary runs of one lazily-built, concurrency-safe sim.Runner per graph,
// fed from two compiled inputs: the per-graph factor-group and efficiency
// index (shared with WithPlatforms children) and this Cluster's own cost
// table. The reference worker partition is likewise one read-only graph per
// cluster graph, shared with WithPlatforms children and held weakly, so it
// is built once while anyone uses it and pins no memory after; so is the
// schedule of each sched.PartitionOnly policy. ChainRecvsByOrder clones
// before mutating.
type Cluster struct {
	Config Config
	// Graph is the full multi-device DAG executed each iteration.
	Graph *graph.Graph
	// Shard maps parameter name → PS index.
	Shard map[string]int
	// Params are the model's parameter tensors.
	Params []model.Param

	// ref holds the reference worker partition; shared by every
	// WithPlatforms child of the same graph.
	ref *refHolder

	// view is the graph compiled for the simulator, built on first use.
	viewOnce sync.Once
	view     *simView
	viewErr  error

	// costs is op ID → the cost model's duration, built on first use and
	// freed with the Cluster.
	costOnce sync.Once
	costs    []float64
}

// simView returns the graph's compiled simulator view, building it on
// first use. The view's Runner is safe for concurrent runs.
func (c *Cluster) simView() (*simView, error) {
	c.viewOnce.Do(func() {
		c.view, c.viewErr = newSimView(c)
	})
	return c.view, c.viewErr
}

// costTable returns the cluster's cost model compiled into a dense table:
// Oracle.Time of every op, indexed by op ID. Built once per Cluster — a
// WithPlatforms child builds its own — so the simulator's dispatch reads a
// slice instead of calling the oracle.
func (c *Cluster) costTable() []float64 {
	c.costOnce.Do(func() {
		oracle := c.oracle()
		ops := c.Graph.Ops()
		costs := make([]float64, len(ops))
		for _, op := range ops {
			costs[op.ID] = oracle.Time(op)
		}
		c.costs = costs
	})
	return c.costs
}

// WorkerDevice returns the device tag of worker i.
func WorkerDevice(i int) string { return fmt.Sprintf("worker:%d", i) }

// PSDevice returns the device tag of parameter server j.
func PSDevice(j int) string { return fmt.Sprintf("ps:%d", j) }

// ChannelResource returns the serialized channel between a worker and a PS.
func ChannelResource(worker, ps int) string {
	return fmt.Sprintf("worker:%d/net:ps:%d", worker, ps)
}

// normalizePlatforms reconciles Platform with Platforms.Default (cloning
// the map so callers' values are never mutated), checks base-platform
// sanity and validates every override key. Build and WithPlatforms share
// it, so a derived cluster is held to exactly the bar a fresh build is.
func (c Config) normalizePlatforms() (Config, error) {
	if c.Platforms != nil {
		pm := c.Platforms.Clone()
		zero := timing.Platform{}
		switch {
		case pm.Default == zero:
			pm.Default = c.Platform
		case c.Platform == zero:
			c.Platform = pm.Default
		case pm.Default != c.Platform:
			return c, fmt.Errorf("cluster: Platform %q and Platforms.Default %q disagree", c.Platform.Name, pm.Default.Name)
		}
		c.Platforms = pm
	}
	if c.Platform.ComputeFLOPS <= 0 || c.Platform.NetBandwidth <= 0 {
		return c, fmt.Errorf("cluster: invalid platform %q", c.Platform.Name)
	}
	if err := c.ValidateOverrides(); err != nil {
		return c, err
	}
	return c, nil
}

// Build constructs the cluster graph for the given configuration.
//
// Every replica is the same worker DAG (§4), so Build builds it once, for
// worker 0, and stamps each replica from that template by op ID. A replica
// differs from the template only in its name prefix, its device tag and
// its compute and channel resources; its ops, payloads and edges, in
// template order, are the template's.
func Build(cfg Config) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 worker, got %d", cfg.Workers)
	}
	if cfg.PS < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 PS, got %d", cfg.PS)
	}
	if err := cfg.ValidateBatch(); err != nil {
		return nil, err
	}
	cfg, err := cfg.normalizePlatforms()
	if err != nil {
		return nil, err
	}
	params := cfg.Model.ParamTensors()
	shard := shardParams(params, cfg.PS)
	iters := cfg.iterations()

	tmpl, err := model.BuildWorker(cfg.Model, cfg.Mode, cfg.Batch(), WorkerDevice(0),
		func(param string) string { return cfg.channel(0, shard[param]) })
	if err != nil {
		return nil, err
	}
	st, err := newStamp(cfg, tmpl)
	if err != nil {
		return nil, err
	}

	full := graph.NewSized(cfg.Ops())

	// Parameter variables exist once; per-iteration serving and update ops
	// hang off them.
	vars := make(map[string]*graph.Op, len(params))
	for _, p := range params {
		dev := PSDevice(shard[p.Name])
		v := full.MustAddOp(dev+"/var/"+p.Name, graph.Variable)
		v.Device, v.Resource, v.Param, v.Bytes = dev, dev+"/compute", p.Name, p.Bytes
		vars[p.Name] = v
	}

	// prevUpdate[param] is the op that produced the parameter's latest
	// value before the current iteration (the variable for iteration 0).
	prevUpdate := make(map[string]*graph.Op, len(params))
	for _, p := range params {
		prevUpdate[p.Name] = vars[p.Name]
	}
	// prevWorkerDone[w] gates an inference agent's next pull round.
	prevWorkerDone := make([][]*graph.Op, cfg.Workers)
	// base[w] is the ID of the current iteration's first op of worker w.
	base := make([]int, cfg.Workers)
	ref := new(refHolder)

	for it := 0; it < iters; it++ {
		ipfx := ""
		if iters > 1 {
			ipfx = fmt.Sprintf("i%d/", it)
		}
		// PS-side serving ops: one read per parameter per iteration, gated
		// by the previous iteration's update (training) so transfers
		// pipeline per-parameter across the iteration boundary.
		reads := make(map[string]*graph.Op, len(params))
		for _, p := range params {
			dev := PSDevice(shard[p.Name])
			r := full.MustAddOp(dev+"/"+ipfx+"read/"+p.Name, graph.Read)
			r.Device, r.Resource, r.Param, r.Bytes = dev, dev+"/compute", p.Name, p.Bytes
			full.MustConnect(prevUpdate[p.Name], r)
			reads[p.Name] = r
		}

		// Worker replicas.
		for w := 0; w < cfg.Workers; w++ {
			base[w] = full.Len()
			if err := st.stampInto(full, w, fmt.Sprintf("%sw%d/", ipfx, w)); err != nil {
				return nil, err
			}
			ops := full.Ops()
			for _, id := range st.recvs {
				recv := ops[base[w]+id]
				full.MustConnect(reads[recv.Param], recv)
				// Inference agents issue the next pull round only after
				// finishing the previous forward pass.
				for _, done := range prevWorkerDone[w] {
					full.MustConnect(done, recv)
				}
			}
			if cfg.Mode == model.Inference {
				leaves := make([]*graph.Op, len(st.leaves))
				for i, id := range st.leaves {
					leaves[i] = ops[base[w]+id]
				}
				prevWorkerDone[w] = leaves
			}
		}
		if it == 0 {
			ref.lo, ref.hi = base[0], base[0]+tmpl.Len()
		}

		// PS-side aggregation for training: every worker's gradient send
		// feeds the parameter's aggregate, which feeds its update.
		if cfg.Mode == model.Training {
			for _, p := range params {
				dev := PSDevice(shard[p.Name])
				agg := full.MustAddOp(dev+"/"+ipfx+"agg/"+p.Name, graph.Aggregate)
				agg.Device, agg.Resource, agg.Param = dev, dev+"/compute", p.Name
				agg.Bytes = p.Bytes * int64(cfg.Workers)
				upd := full.MustAddOp(dev+"/"+ipfx+"update/"+p.Name, graph.Update)
				upd.Device, upd.Resource, upd.Param, upd.Bytes = dev, dev+"/compute", p.Name, p.Bytes
				full.MustConnect(agg, upd)
				id, ok := st.sends[p.Name]
				if !ok {
					return nil, fmt.Errorf("cluster: missing send op for %s", p.Name)
				}
				ops := full.Ops()
				for w := 0; w < cfg.Workers; w++ {
					full.MustConnect(ops[base[w]+id], agg)
				}
				prevUpdate[p.Name] = upd
			}
		}
	}

	if err := full.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &Cluster{Config: cfg, Graph: full, Shard: shard, Params: params, ref: ref}, nil
}

// stamp is a worker template plus the per-worker tags a replica of it
// takes: the template op IDs Build wires to the PS side, and a small
// resource table in place of per-worker channel lookups.
type stamp struct {
	tmpl *graph.Graph
	// slot[id] indexes a replica's resource table for template op id: 0
	// is the worker's compute unit, 1+j its channel to PS j.
	slot []int
	// devices[w] and resources[w] are worker w's device tag and resource
	// table.
	devices   []string
	resources [][]string
	// recvs and leaves are the template's recv ops and leaves, in ID
	// order; sends maps a parameter to its gradient send.
	recvs, leaves []int
	sends         map[string]int
}

// newStamp indexes the template, worker 0's DAG, for stamping cfg.Workers
// replicas.
func newStamp(cfg Config, tmpl *graph.Graph) (*stamp, error) {
	st := &stamp{
		tmpl:      tmpl,
		slot:      make([]int, tmpl.Len()),
		devices:   make([]string, cfg.Workers),
		resources: make([][]string, cfg.Workers),
		sends:     make(map[string]int, cfg.Model.Params),
	}
	for w := range st.devices {
		st.devices[w] = WorkerDevice(w)
		res := make([]string, 1+cfg.PS)
		res[0] = st.devices[w] + "/compute"
		for j := 0; j < cfg.PS; j++ {
			res[1+j] = cfg.channel(w, j)
		}
		st.resources[w] = res
	}
	slotOf := make(map[string]int, len(st.resources[0]))
	for i, res := range st.resources[0] {
		slotOf[res] = i
	}
	for _, op := range tmpl.Ops() {
		i, ok := slotOf[op.Resource]
		if !ok || op.Device != st.devices[0] {
			return nil, fmt.Errorf("cluster: worker template op %q is on %s/%s, not a worker 0 resource",
				op.Name, op.Device, op.Resource)
		}
		st.slot[op.ID] = i
		switch op.Kind {
		case graph.Recv:
			st.recvs = append(st.recvs, op.ID)
		case graph.Send:
			st.sends[op.Param] = op.ID
		}
		if op.IsLeaf() {
			st.leaves = append(st.leaves, op.ID)
		}
	}
	return st, nil
}

// stampInto appends worker w's replica of the template to g with every op
// name prefixed: template op i becomes op base+i, where base is g.Len()
// on entry, and its edges are the template's, in template Out order. Param
// tags stay un-prefixed so schedules keyed by parameter apply across
// replicas.
func (st *stamp) stampInto(g *graph.Graph, w int, prefix string) error {
	base := g.Len()
	dev, res := st.devices[w], st.resources[w]
	tops := st.tmpl.Ops()
	for _, op := range tops {
		c, err := g.AddOp(prefix+op.Name, op.Kind)
		if err != nil {
			return err
		}
		c.Device, c.Resource = dev, res[st.slot[op.ID]]
		c.Bytes, c.FLOPs, c.Param = op.Bytes, op.FLOPs, op.Param
	}
	ops := g.Ops()
	for _, op := range tops {
		from := ops[base+op.ID]
		for _, succ := range op.Out() {
			if err := g.Connect(from, ops[base+succ.ID]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WithPlatforms returns a cluster identical to c except for its cost model:
// the given base platform plus optional heterogeneous overrides. The graph,
// parameter sharding, reference worker and per-graph simulator
// precomputation (the shared sim.Runner, factor groups and efficiency
// index) are shared with c rather than rebuilt — platforms never change
// topology, only per-op costs. The returned cluster is bit-identical in
// every output to a fresh Build of the same configuration (regression-
// tested), at none of the graph-construction cost; the batched what-if API
// leans on this to amortize one graph across many platform variants. Only
// the cost table is the child's own, compiled on its first run.
//
// The receiver and the result are both read-only after this call and may be
// used concurrently, like any built Cluster.
func (c *Cluster) WithPlatforms(platform timing.Platform, platforms *timing.PlatformMap) (*Cluster, error) {
	cfg := c.Config
	cfg.Platform = platform
	cfg.Platforms = platforms
	cfg, err := cfg.normalizePlatforms()
	if err != nil {
		return nil, err
	}
	nc := &Cluster{Config: cfg, Graph: c.Graph, Shard: c.Shard, Params: c.Params, ref: c.ref}
	// Adopt the parent's per-graph view. If it failed to build, leave the
	// child lazy: it would fail identically on first use.
	if v, verr := c.simView(); verr == nil {
		nc.viewOnce.Do(func() { nc.view = v })
	}
	return nc, nil
}

// shardParams assigns parameters to PS devices with greedy largest-first
// balancing by bytes (the standard PS placement heuristic).
func shardParams(params []model.Param, nPS int) map[string]int {
	shard := make(map[string]int, len(params))
	load := make([]int64, nPS)
	for _, p := range model.SortBySizeDesc(params) {
		best := 0
		for j := 1; j < nPS; j++ {
			if load[j] < load[best] {
				best = j
			}
		}
		shard[p.Name] = best
		load[best] += p.Bytes
	}
	return shard
}

// PSLoads returns the total parameter bytes hosted per PS.
func (c *Cluster) PSLoads() []int64 {
	loads := make([]int64, c.Config.PS)
	for _, p := range c.Params {
		loads[c.Shard[p.Name]] += p.Bytes
	}
	return loads
}

// oracle returns the cluster's ground-truth cost oracle: the heterogeneous
// PlatformMap when one is configured, the homogeneous platform otherwise
// (the exact same code path and arithmetic as before heterogeneity
// existed, keeping homogeneous runs bit-identical).
func (c *Cluster) oracle() timing.Oracle {
	if c.Config.Platforms != nil {
		return c.Config.Platforms.Oracle()
	}
	return c.Config.Platform.Oracle()
}

// refPrefix is the op-name prefix of the reference worker's first-iteration
// replica inside the full graph.
func (c *Cluster) refPrefix() string {
	if c.Config.iterations() > 1 {
		return "i0/w0/"
	}
	return "w0/"
}

// refHolder is one cluster graph's reference worker partition and the
// schedules of its sched.PartitionOnly policies, all held weakly: while any
// caller still uses one, every call returns it; once a GC has collected
// it, the next call builds it again.
type refHolder struct {
	// lo and hi bound the op IDs of worker 0's first-iteration replica in
	// the cluster graph. Build sets them before the holder is shared, and
	// they never change after.
	lo, hi int

	mu sync.Mutex
	//tictac:guardedby mu
	g weak.Pointer[graph.Graph]
	// orders maps a policy name to its schedule of the reference worker.
	//tictac:guardedby mu
	orders map[string]weak.Pointer[core.Schedule]
}

// ReferenceWorker returns the partition of worker 0 (first iteration) with
// names un-prefixed — the graph the ordering wizard consumes (§4: "a
// reference worker partition"; all replicas and iterations are identical so
// one schedule serves all).
//
// The result is shared and read-only, like Graph: every call on this
// cluster or a WithPlatforms child returns the same graph while any caller
// still holds it. It is held weakly, so a cluster nobody is scheduling pins
// no memory for it; after a GC has collected it the next call builds it
// again, op for op the same.
func (c *Cluster) ReferenceWorker() *graph.Graph {
	c.ref.mu.Lock()
	defer c.ref.mu.Unlock()
	if g := c.ref.g.Value(); g != nil {
		return g
	}
	g := c.buildReferenceWorker()
	c.ref.g = weak.Make(g)
	return g
}

// buildReferenceWorker copies the reference partition out of the full
// graph: the op ID range Build recorded, names un-prefixed, with the edges
// that stay inside it.
func (c *Cluster) buildReferenceWorker() *graph.Graph {
	lo, hi := c.ref.lo, c.ref.hi
	n := len(c.refPrefix())
	src := c.Graph.Ops()[lo:hi]
	out := graph.NewSized(len(src))
	for _, op := range src {
		r := out.MustAddOp(op.Name[n:], op.Kind)
		r.Device, r.Resource = op.Device, op.Resource
		r.Bytes, r.FLOPs, r.Param = op.Bytes, op.FLOPs, op.Param
	}
	ops := out.Ops()
	for _, op := range src {
		from := ops[op.ID-lo]
		for _, succ := range op.Out() {
			if succ.ID >= lo && succ.ID < hi {
				out.MustConnect(from, ops[succ.ID-lo])
			}
		}
	}
	return out
}

// ComputeSchedule runs the ordering wizard for the cluster under the named
// scheduling policy (see internal/sched for the policy table).
//
// sched.None (or the empty string) returns a nil schedule — the unscheduled
// baseline. Timing-aware policies that implement sched.OracleOrderer (tac)
// first trace warmup baseline iterations (the paper's tracing module),
// reduce them with the min-of-k estimator (§5), and order under the
// estimated oracle; every other policy orders the reference worker directly
// against the platform's analytic cost model. Either way the schedule is
// computed offline, before measurement iterations, exactly as in the paper
// ("the priority list is calculated offline before the execution; all
// iterations follow the same order"). seed feeds both the warmup trace and
// any stochastic policy (random).
//
// A policy that implements sched.PartitionOnly orders once per cluster
// graph: every call on this cluster or a WithPlatforms child, for any
// seed and warmup, returns the same schedule while any caller still holds
// it (held weakly, like ReferenceWorker). Such a schedule is shared and
// read-only: callers must not modify its Rank or Order.
//
// On a heterogeneous cluster the oracle path sees the full PlatformMap
// (warmup traces run on the hetero graph, so a slow worker's measured op
// times flow into the estimated oracle), while analytic policies order
// against the reference worker's own resolved platform.
func (c *Cluster) ComputeSchedule(policy string, warmupIters int, seed int64) (*core.Schedule, error) {
	if policy == "" || policy == sched.None {
		return nil, nil
	}
	p, err := sched.New(policy, seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if oo, ok := p.(sched.OracleOrderer); ok {
		oracle, err := c.TraceOracle(warmupIters, seed, timing.EstimateMin)
		if err != nil {
			return nil, err
		}
		return oo.OrderWithOracle(c.ReferenceWorker(), oracle)
	}
	plat := c.Config.Platform
	if c.Config.Platforms != nil {
		plat = c.Config.Platforms.For(WorkerDevice(0))
	}
	if _, ok := p.(sched.PartitionOnly); ok {
		return c.partitionOrder(p, &plat)
	}
	return p.Order(c.ReferenceWorker(), &plat)
}

// partitionOrder returns the held schedule of a sched.PartitionOnly policy
// on this cluster graph, ordering the reference worker when none is held.
// It orders outside the lock, because Order calls ReferenceWorker, which
// takes it, and publishes only into an empty slot, so concurrent first
// calls all return the first schedule published.
func (c *Cluster) partitionOrder(p sched.Policy, plat *timing.Platform) (*core.Schedule, error) {
	name := p.Name()
	c.ref.mu.Lock()
	s := c.ref.orders[name].Value()
	c.ref.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s, err := p.Order(c.ReferenceWorker(), plat)
	if err != nil {
		return nil, err
	}
	c.ref.mu.Lock()
	defer c.ref.mu.Unlock()
	if held := c.ref.orders[name].Value(); held != nil {
		return held, nil
	}
	if c.ref.orders == nil {
		c.ref.orders = make(map[string]weak.Pointer[core.Schedule])
	}
	c.ref.orders[name] = weak.Make(s)
	return s, nil
}

// TraceRuns runs warmup baseline iterations with the tracing module
// attached and returns the tracer (§5: tracing module). Callers can derive
// estimators of several kinds from the one trace via OracleFromTrace — the
// oracle-estimator ablation compares three reductions of identical samples.
func (c *Cluster) TraceRuns(warmupIters int, seed int64) (*timing.Tracer, error) {
	if warmupIters < 1 {
		warmupIters = 5
	}
	v, err := c.simView()
	if err != nil {
		return nil, err
	}
	tracer := timing.NewTracer()
	plan := sim.Plan{Costs: c.costTable(), Jitter: c.Config.Platform.Jitter, Tracer: tracer}
	for i := 0; i < warmupIters; i++ {
		plan.Seed = seed + int64(i)
		if err := v.runner.Summarize(&plan, func(*sim.Summary) {}); err != nil {
			return nil, err
		}
	}
	return tracer, nil
}

// OracleFromTrace reduces a tracer's measurements into a time oracle keyed
// by reference-worker op names. kind selects the reduction (the paper uses
// min of 5 runs).
func (c *Cluster) OracleFromTrace(tracer *timing.Tracer, kind timing.EstimateKind) timing.Oracle {
	// Trace names carry the worker prefix; rekey to reference names.
	prefix := c.refPrefix()
	est := tracer.Estimator(kind, c.oracle())
	return timing.OracleFunc(func(op *graph.Op) float64 {
		probe := *op
		probe.Name = prefix + op.Name
		return est.Time(&probe)
	})
}

// TraceOracle runs warmup baseline iterations and returns a time oracle
// estimated from the measurements (§5: tracing module → time oracle
// estimator). It is TraceRuns followed by OracleFromTrace.
func (c *Cluster) TraceOracle(warmupIters int, seed int64, kind timing.EstimateKind) (timing.Oracle, error) {
	tracer, err := c.TraceRuns(warmupIters, seed)
	if err != nil {
		return nil, err
	}
	return c.OracleFromTrace(tracer, kind), nil
}

// ChainRecvsByOrder returns a clone of the cluster graph with every
// worker's recv ops chained along the schedule order — the conservative
// "enforce directly on the DAG" alternative the paper rejects in §5.1
// because each transfer then waits for the previous one's completion,
// serializing across channels and preventing pipelining.
func (c *Cluster) ChainRecvsByOrder(order []string) (*graph.Graph, error) {
	g := c.Graph.Clone()
	iters := c.Config.iterations()
	for it := 0; it < iters; it++ {
		ipfx := ""
		if iters > 1 {
			ipfx = fmt.Sprintf("i%d/", it)
		}
		for w := 0; w < c.Config.Workers; w++ {
			prefix := fmt.Sprintf("%sw%d/recv/", ipfx, w)
			var prev *graph.Op
			for _, key := range order {
				op := g.Op(prefix + key)
				if op == nil {
					return nil, fmt.Errorf("cluster: recv for %q missing on worker %d", key, w)
				}
				if prev != nil {
					if err := g.Connect(prev, op); err != nil {
						return nil, err
					}
				}
				prev = op
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
