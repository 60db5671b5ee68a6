// Package tictac reproduces "TicTac: Accelerating Distributed Deep Learning
// with Communication Scheduling" (Hashemi, Abdu Jyothi, Campbell — MLSYS
// 2019) as a self-contained Go library.
//
// TicTac observes that Parameter-Server training with DAG-based frameworks
// transfers parameters to workers in a random order every iteration, hurting
// communication/computation overlap and creating stragglers. It fixes this
// by assigning priorities to transfers via two heuristics over the worker's
// computational DAG — TIC (timing-independent) and TAC (timing-aware) — and
// enforcing the order at the sender.
//
// The package is a facade over the building blocks:
//
//   - Graph / Op: partitioned computational DAGs (internal/graph)
//   - ModelSpec: the ten Table 1 DNN models (internal/model)
//   - Platform / Oracle / Tracer: cost model and time oracle (internal/timing)
//   - TIC / TAC / Efficiency / Speedup: the paper's contribution (internal/core)
//   - Policy / NewPolicy / SchedulingPolicies: the ordering-policy table
//     (internal/sched) — TIC and TAC plus random, fifo, revtopo,
//     smallest-first and critical-path baselines
//   - Simulate: multi-resource discrete-event execution (internal/sim)
//   - BuildCluster: Model-Replica + PS graphs and iteration protocol
//     (internal/cluster)
//   - NewService: the tictacd HTTP scheduling daemon — cached,
//     request-coalescing schedule/simulate/batch endpoints (internal/service)
//   - NewFleetNode: sharded multi-node deployment — consistent-hash cache
//     routing, peer health, hedged forwarding, graceful drain (internal/fleet)
//
// Quickstart:
//
//	spec, _ := tictac.ModelByName("ResNet-50 v2")
//	c, _ := tictac.BuildCluster(tictac.ClusterConfig{
//		Model: spec, Mode: tictac.Training, Workers: 4, PS: 1,
//		Platform: tictac.EnvG(),
//	})
//	sched, _ := c.ComputeSchedule(tictac.PolicyTIC, 0, 1)
//	out, _ := c.Run(tictac.DefaultExperiment, tictac.RunOptions{Schedule: sched, Jitter: -1})
//	fmt.Println(out.MeanThroughput)
//
// See ARCHITECTURE.md for the full layer map and data-flow walkthrough.
package tictac

import (
	"io"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/fleet"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/service"
	"tictac/internal/sim"
	"tictac/internal/timing"
)

// Re-exported types. Aliases keep the public surface in one import while
// the implementation stays modular.
type (
	// Graph is a partitioned computational DAG.
	Graph = graph.Graph
	// Op is one node of a Graph.
	Op = graph.Op
	// OpKind classifies ops (Compute, Recv, Send, ...).
	OpKind = graph.Kind

	// ModelSpec describes one Table 1 model.
	ModelSpec = model.Spec
	// ModelParam is one parameter tensor of a model.
	ModelParam = model.Param
	// Mode selects inference or training worker graphs.
	Mode = model.Mode

	// Schedule is a transfer-priority assignment produced by a scheduling
	// policy.
	Schedule = core.Schedule
	// Algorithm names the heuristic recorded in a Schedule.
	Algorithm = core.Algorithm
	// Policy is one pluggable transfer-ordering heuristic (internal/sched).
	Policy = sched.Policy

	// Platform is an execution-environment cost model.
	Platform = timing.Platform
	// PlatformMap is a heterogeneous cost model: a default Platform plus
	// per-device and per-channel overrides (see ClusterConfig.Platforms).
	PlatformMap = timing.PlatformMap
	// ChannelCost overrides one channel's bandwidth/latency in a
	// PlatformMap.
	ChannelCost = timing.ChannelCost
	// Oracle predicts per-op execution times (§3.1).
	Oracle = timing.Oracle
	// OracleFunc adapts a function to Oracle.
	OracleFunc = timing.OracleFunc
	// Tracer collects per-op runtime measurements (§5 tracing module).
	Tracer = timing.Tracer

	// SimConfig configures one simulated execution.
	SimConfig = sim.Config
	// SimResult summarizes one simulated execution.
	SimResult = sim.Result
	// SimRunner is a reusable, concurrency-safe executor bound to one
	// graph: per-graph precomputation done once, per-run buffers recycled
	// (zero steady-state allocations beyond each SimResult).
	SimRunner = sim.Runner

	// ClusterConfig describes a Model-Replica + PS setup.
	ClusterConfig = cluster.Config
	// Cluster is a built multi-device execution graph.
	Cluster = cluster.Cluster
	// RunOptions controls measured cluster runs.
	RunOptions = cluster.RunOptions
	// Straggler transiently slows one worker for a window of iterations.
	Straggler = cluster.Straggler
	// Contention injects background network contention for a window of
	// iterations.
	Contention = cluster.Contention
	// Experiment is the warmup/measure protocol of §6.
	Experiment = cluster.Experiment
	// Outcome aggregates measured iterations.
	Outcome = cluster.Outcome
	// Iteration summarizes one synchronized step.
	Iteration = cluster.Iteration

	// SchedulingService is the tictacd HTTP service: cached,
	// request-coalescing schedule, simulation and batched what-if endpoints
	// over this library (internal/service; see docs/service.md).
	SchedulingService = service.Service
	// ServiceOptions configures a SchedulingService.
	ServiceOptions = service.Options
	// ServiceWorkloadSpec is the unified workload envelope every POST
	// endpoint resolves through (model, platform, policy, sim knobs).
	ServiceWorkloadSpec = service.WorkloadSpec
	// ServiceScheduleRequest is the body of POST /v1/schedule.
	ServiceScheduleRequest = service.ScheduleRequest
	// ServiceSimulateRequest is the body of POST /v1/simulate.
	ServiceSimulateRequest = service.SimulateRequest
	// ServiceBatchRequest is the body of POST /v1/batch: one base workload
	// plus what-if variants expressed as deltas on it.
	ServiceBatchRequest = service.BatchRequest
	// ServiceBatchVariant is one what-if delta in a batch request.
	ServiceBatchVariant = service.BatchVariant
	// ServiceBatchResponse is the body of POST /v1/batch: per-variant
	// results plus the ranked capacity-planning summary.
	ServiceBatchResponse = service.BatchResponse
	// ServicePlatformOverrides is the wire form of a heterogeneous cost
	// model (per-device / per-channel overrides) in a WorkloadSpec.
	ServicePlatformOverrides = service.PlatformOverrides
	// ServiceDeviceOverride / ServiceChannelOverride are single override
	// entries in a ServicePlatformOverrides.
	ServiceDeviceOverride  = service.DeviceOverride
	ServiceChannelOverride = service.ChannelOverride
	// ServiceStragglerSpec / ServiceContentionSpec are the wire forms of
	// transient straggler and contention windows.
	ServiceStragglerSpec  = service.StragglerSpec
	ServiceContentionSpec = service.ContentionSpec

	// FleetMember identifies one tictacd node in a sharded fleet.
	FleetMember = fleet.Member
	// FleetConfig configures a fleet node: static membership seed, probe
	// cadence and health thresholds (internal/fleet; see docs/fleet.md).
	FleetConfig = fleet.Config
	// FleetNode tracks fleet membership and peer health and owns the
	// consistent-hash ring; pass it to ServiceOptions.Fleet to make a
	// SchedulingService route workloads to their home nodes.
	FleetNode = fleet.Node
)

// Op kinds.
const (
	Compute   = graph.Compute
	Recv      = graph.Recv
	Send      = graph.Send
	Aggregate = graph.Aggregate
	Read      = graph.Read
	Update    = graph.Update
	Variable  = graph.Variable
)

// Worker-graph modes.
const (
	Inference = model.Inference
	Training  = model.Training
)

// Scheduling algorithms (the names recorded in Schedule.Algorithm).
const (
	AlgoNone = core.AlgoNone
	AlgoTIC  = core.AlgoTIC
	AlgoTAC  = core.AlgoTAC
)

// Scheduling-policy selectors for Cluster.ComputeSchedule and NewPolicy.
// PolicyNone yields a nil schedule (the unscheduled baseline); the rest
// resolve against the internal/sched policy table.
const (
	PolicyNone          = sched.None
	PolicyTIC           = sched.TIC
	PolicyTAC           = sched.TAC
	PolicyRandom        = sched.Random
	PolicyFIFO          = sched.FIFO
	PolicyRevTopo       = sched.RevTopo
	PolicySmallestFirst = sched.SmallestFirst
	PolicyCriticalPath  = sched.CriticalPath
)

// SchedulingPolicies returns every scheduling-policy name in canonical
// order.
func SchedulingPolicies() []string { return sched.Names() }

// NewPolicy instantiates a scheduling policy by name. seed feeds
// stochastic policies (random); deterministic policies ignore it.
func NewPolicy(name string, seed int64) (Policy, error) { return sched.New(name, seed) }

// DefaultExperiment is the paper's 2-warmup / 10-measured protocol.
var DefaultExperiment = cluster.DefaultExperiment

// NewGraph returns an empty computational graph.
func NewGraph() *Graph { return graph.New() }

// Models returns the ten Table 1 model specs in paper order.
func Models() []ModelSpec { return model.Catalog() }

// ModelByName looks a Table 1 model up by name, e.g. "Inception v3".
func ModelByName(name string) (ModelSpec, bool) { return model.ByName(name) }

// BuildWorkerGraph constructs a single worker's partitioned DAG for the
// model (all transfers on one channel). For multi-PS layouts use
// BuildCluster, which shards parameters and wires PS-side ops.
func BuildWorkerGraph(spec ModelSpec, mode Mode, batch int, device string) (*Graph, error) {
	return model.BuildWorker(spec, mode, batch, device, nil)
}

// EnvG returns the cloud GPU platform profile of the paper's evaluation.
func EnvG() Platform { return timing.EnvG() }

// EnvC returns the CPU-cluster platform profile of the paper's evaluation.
func EnvC() Platform { return timing.EnvC() }

// NewPlatformMap returns a heterogeneous cost model whose every device
// runs the given default platform until overridden with SetDevice /
// SetChannel (see docs/hetero-scenarios.md).
func NewPlatformMap(def Platform) *PlatformMap { return timing.NewPlatformMap(def) }

// NewTracer returns an empty runtime tracer.
func NewTracer() *Tracer { return timing.NewTracer() }

// TIC computes the Timing-Independent Communication schedule (Algorithm 2)
// for a worker partition.
func TIC(g *Graph) (*Schedule, error) { return core.TIC(g) }

// TAC computes the Timing-Aware Communication schedule (Algorithm 3) for a
// worker partition under the given time oracle.
func TAC(g *Graph, oracle Oracle) (*Schedule, error) { return core.TAC(g, oracle) }

// Bounds returns the §3.2 makespan bounds (UMakespan, LMakespan).
func Bounds(g *Graph, oracle Oracle) (upper, lower float64) { return core.Bounds(g, oracle) }

// Efficiency returns the scheduling-efficiency metric E (equation 3).
func Efficiency(g *Graph, oracle Oracle, makespan float64) float64 {
	return core.Efficiency(g, oracle, makespan)
}

// Speedup returns the theoretical maximum speedup S (equation 4).
func Speedup(g *Graph, oracle Oracle) float64 { return core.Speedup(g, oracle) }

// Simulate executes a graph once on the discrete-event executor.
func Simulate(g *Graph, cfg SimConfig) (*SimResult, error) { return sim.Run(g, cfg) }

// NewSimRunner builds a reusable executor for repeated simulations of one
// graph — the fast path behind Simulate (which pays the per-graph
// precomputation on every call). Results are bit-identical to Simulate.
func NewSimRunner(g *Graph) (*SimRunner, error) { return sim.NewRunner(g) }

// BuildCluster assembles a Model-Replica + Parameter-Server execution graph.
func BuildCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.Build(cfg) }

// ReadGraphJSON deserializes a graph written by Graph.WriteJSON.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return graph.ReadJSON(r) }

// ReadScheduleJSON deserializes a schedule written by Schedule.WriteJSON.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) { return core.ReadSchedule(r) }

// ValidateSchedule checks that a schedule covers exactly the partition's
// transfers with an order consistent with its ranks.
func ValidateSchedule(g *Graph, s *Schedule) error { return core.ValidateSchedule(g, s) }

// GraphDOT renders a graph in Graphviz DOT format.
func GraphDOT(g *Graph, title string) string { return graph.DOT(g, title) }

// NewService returns the tictacd scheduling service; mount its Handler()
// on any HTTP server. See docs/service.md for the API and cache semantics.
func NewService(opts ServiceOptions) *SchedulingService { return service.New(opts) }

// NewFleetNode returns the membership/health tracker for one member of a
// sharded tictacd fleet. Wire it into ServiceOptions.Fleet and call Start
// to run the health probe loop. See docs/fleet.md for ring semantics, the
// health state machine and the drain protocol.
func NewFleetNode(cfg FleetConfig) (*FleetNode, error) { return fleet.NewNode(cfg) }
