package cluster

// Parity tests pinning the cluster layer's refactored hot path — shared
// sim.Runner, ID-indexed efficiency — to the pre-refactor semantics, plus
// the BenchmarkClusterRun microbenchmark behind `make perf`.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
	"tictac/internal/stats"
	"tictac/internal/timing"
)

// refIterationEfficiency recomputes the efficiency metric exactly the way
// the pre-refactor code did: trim the worker prefix off every span name
// into a string-keyed duration map and rebuild the reference partition.
func refIterationEfficiency(c *Cluster, res *sim.Result) float64 {
	prefix := c.refPrefix()
	measured := make(map[string]float64)
	var start, end float64
	first := true
	for _, sp := range res.Spans {
		if sp.Op.Device != WorkerDevice(0) {
			continue
		}
		name := sp.Op.Name
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		name = name[len(prefix):]
		measured[name] = sp.End - sp.Start
		if first || sp.Start < start {
			start = sp.Start
			first = false
		}
		if sp.End > end {
			end = sp.End
		}
	}
	ref := c.ReferenceWorker()
	oracle := timing.OracleFunc(func(op *graph.Op) float64 { return measured[op.Name] })
	return core.Efficiency(ref, oracle, end-start)
}

// TestIterationEfficiencyParity pins the index-driven efficiency of the
// summary run to the name-keyed original, bit for bit, on single- and
// multi-iteration (chained) graphs: both evaluate the same simulated run,
// one from the frozen engine's spans, one from the Runner's summary.
func TestIterationEfficiencyParity(t *testing.T) {
	spec, _ := model.ByName("AlexNet v2")
	for _, iters := range []int{1, 2} {
		c, err := Build(Config{
			Model:      spec,
			Mode:       model.Training,
			Workers:    2,
			PS:         1,
			Platform:   timing.EnvG(),
			Iterations: iters,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.ComputeSchedule("tic", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.simView()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			res, err := simref.Run(c.Graph, sim.Config{
				Oracle:   c.oracle(),
				Schedule: s,
				Seed:     seed,
				Jitter:   c.Config.Platform.Jitter,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := refIterationEfficiency(c, res)
			var got float64
			costs, err := c.costTable()
			if err != nil {
				t.Fatal(err)
			}
			plan := sim.Plan{Costs: costs, Schedule: s, Seed: seed, Jitter: c.Config.Platform.Jitter}
			if err := v.runner.Summarize(&plan, func(sum *sim.Summary) { got = v.efficiency(sum) }); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("iters=%d seed=%d: efficiency %v != %v", iters, seed, got, want)
			}
		}
	}
}

// refCostScale is the per-op duration multiplier the cluster layer handed
// the simulator before factor groups: straggler and contention windows
// folded into closures over string-keyed maps, with degraded-shard factors
// layered on top. nil when nothing scales.
func refCostScale(c *Cluster, opts RunOptions, degraded []float64) func(op *graph.Op) float64 {
	deviceFactor := make(map[string]float64)
	for _, s := range opts.Stragglers {
		if s.Factor <= 0 || s.Factor == 1 || !s.active(opts.Iteration) {
			continue
		}
		dev := WorkerDevice(s.Worker)
		if deviceFactor[dev] == 0 {
			deviceFactor[dev] = 1
		}
		deviceFactor[dev] *= s.Factor
	}
	net := 1.0
	for _, cn := range opts.Contention {
		if cn.Factor > 0 && cn.Factor != 1 && cn.active(opts.Iteration) {
			net *= cn.Factor
		}
	}
	var base func(op *graph.Op) float64
	if len(deviceFactor) > 0 || net != 1 {
		base = func(op *graph.Op) float64 {
			if op.Kind == graph.Recv || op.Kind == graph.Send {
				return net
			}
			if f, ok := deviceFactor[op.Device]; ok {
				return f
			}
			return 1
		}
	}
	if degraded == nil {
		return base
	}
	return func(op *graph.Op) float64 {
		f := 1.0
		if base != nil {
			f = base(op)
		}
		if op.Param != "" {
			if d := degraded[c.Shard[op.Param]]; d != 1 {
				f *= d
			}
		}
		return f
	}
}

// refMask is the membership mask as a per-op closure, nil when every
// worker is active.
func refMask(active []bool) func(op *graph.Op) bool {
	inactive := make(map[string]bool)
	for w, a := range active {
		if !a {
			inactive[WorkerDevice(w)] = true
		}
	}
	if len(inactive) == 0 {
		return nil
	}
	return func(op *graph.Op) bool { return inactive[op.Device] }
}

// refIteration replays one iteration the way the cluster layer ran it
// before the summary run: the frozen simulator fed by the per-op closures
// above, every output read back from materialized Results. simref predates
// membership masks, so a masked run replays through sim.Run instead: the
// Config path, which compiles the closures per run and is itself pinned
// against simref for everything but the mask.
func refIteration(t *testing.T, c *Cluster, opts RunOptions, tl *Timeline) *Iteration {
	t.Helper()
	jitter := opts.Jitter
	if jitter < 0 {
		jitter = c.Config.Platform.Jitter
	}
	run := func(seed int64, degraded []float64, active []bool) *sim.Result {
		cfg := sim.Config{
			Oracle:      c.oracle(),
			Schedule:    opts.Schedule,
			Seed:        seed,
			Jitter:      jitter,
			ReorderProb: opts.ReorderProb,
			CostScale:   refCostScale(c, opts, degraded),
			Disabled:    refMask(active),
		}
		engine := simref.Run
		if cfg.Disabled != nil {
			engine = sim.Run
		}
		res, err := engine(c.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if tl == nil || tl.Empty() {
		res := run(opts.Seed, nil, nil)
		it := &Iteration{
			Makespan:      res.Makespan,
			RecvOrder:     res.RecvStartOrder[WorkerDevice(0)],
			ReorderEvents: res.ReorderEvents,
			ActiveWorkers: c.Config.Workers,
		}
		minFinish := res.Makespan
		for w := 0; w < c.Config.Workers; w++ {
			f := res.DeviceFinish[WorkerDevice(w)]
			it.WorkerFinish = append(it.WorkerFinish, f)
			minFinish = math.Min(minFinish, f)
		}
		if res.Makespan > 0 {
			it.StragglerPct = (res.Makespan - minFinish) / res.Makespan * 100
		}
		it.Efficiency = refIterationEfficiency(c, res)
		return it
	}
	st := tl.stateAt(opts.Iteration)
	recovery := 0.0
	var aborted float64
	if st.preActive != nil {
		aborted = run(abortSeed(opts.Seed), st.preDegraded, st.preActive).Makespan
		maxPoint := 0.0
		for _, e := range st.eventsHere {
			if e.Kind == WorkerFail || e.Kind == PSShardFail {
				maxPoint = math.Max(maxPoint, e.failPoint())
			}
		}
		recovery += maxPoint * aborted
	}
	loads := c.PSLoads()
	for _, e := range st.eventsHere {
		if e.Kind == PSShardFail || e.Kind == PSRecover {
			recovery += c.shardReload(e.PS, loads[e.PS])
		}
	}
	events, _ := c.eventOutcomes(st.eventsHere, aborted, 0)
	res := run(opts.Seed, st.degraded, st.active)
	it := &Iteration{
		Makespan:        recovery + res.Makespan,
		RecvOrder:       res.RecvStartOrder[WorkerDevice(0)],
		ReorderEvents:   res.ReorderEvents,
		ActiveWorkers:   st.activeN,
		RecoverySeconds: recovery,
		Events:          events,
	}
	minFinish := res.Makespan
	for w := 0; w < c.Config.Workers; w++ {
		f := res.DeviceFinish[WorkerDevice(w)]
		it.WorkerFinish = append(it.WorkerFinish, f)
		if st.active[w] {
			minFinish = math.Min(minFinish, f)
		}
	}
	if res.Makespan > 0 {
		it.StragglerPct = (res.Makespan - minFinish) / res.Makespan * 100
	}
	it.Efficiency = -1
	if st.active[0] {
		it.Efficiency = refIterationEfficiency(c, res)
	}
	return it
}

// mustEqualIteration compares two iterations, floats bit for bit.
func mustEqualIteration(t *testing.T, label string, want, got *Iteration) {
	t.Helper()
	floats := []struct {
		name      string
		want, got float64
	}{
		{"makespan", want.Makespan, got.Makespan},
		{"straggler pct", want.StragglerPct, got.StragglerPct},
		{"efficiency", want.Efficiency, got.Efficiency},
		{"recovery", want.RecoverySeconds, got.RecoverySeconds},
	}
	for _, f := range floats {
		if math.Float64bits(f.want) != math.Float64bits(f.got) {
			t.Fatalf("%s: %s %v != %v", label, f.name, f.got, f.want)
		}
	}
	if len(got.WorkerFinish) != len(want.WorkerFinish) {
		t.Fatalf("%s: %d worker finishes != %d", label, len(got.WorkerFinish), len(want.WorkerFinish))
	}
	for w := range want.WorkerFinish {
		if math.Float64bits(want.WorkerFinish[w]) != math.Float64bits(got.WorkerFinish[w]) {
			t.Fatalf("%s: worker %d finish %v != %v", label, w, got.WorkerFinish[w], want.WorkerFinish[w])
		}
	}
	if !reflect.DeepEqual(want.RecvOrder, got.RecvOrder) {
		t.Fatalf("%s: recv order differs", label)
	}
	if want.ReorderEvents != got.ReorderEvents || want.ActiveWorkers != got.ActiveWorkers {
		t.Fatalf("%s: reorders/active %d/%d != %d/%d", label,
			got.ReorderEvents, got.ActiveWorkers, want.ReorderEvents, want.ActiveWorkers)
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatalf("%s: events %+v != %+v", label, got.Events, want.Events)
	}
}

// parityScenarios are the injections the summary run's factor groups,
// masks and cost tables must reproduce exactly.
func parityScenarios(t *testing.T) []struct {
	name string
	c    *Cluster
	opts RunOptions
} {
	t.Helper()
	spec, _ := model.ByName("Inception v1")
	build := func(pm *timing.PlatformMap) *Cluster {
		c, err := Build(Config{
			Model:     spec,
			Mode:      model.Training,
			Workers:   3,
			PS:        2,
			Platform:  timing.EnvG(),
			Platforms: pm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain := build(nil)
	pm := timing.NewPlatformMap(timing.EnvG()).
		SetDevice(WorkerDevice(1), timing.EnvG().SlowedCompute(3)).
		SetDevice(PSDevice(1), timing.EnvG().SlowedNet(2)).
		SetChannel(ChannelResource(2, 0), timing.ChannelCost{Bandwidth: 1e8, Latency: 5e-4})
	hetero := build(pm)
	s, err := plain.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := RunOptions{Schedule: s, Jitter: -1, ReorderProb: 0.05}
	with := func(f func(*RunOptions)) RunOptions {
		o := base
		f(&o)
		return o
	}
	return []struct {
		name string
		c    *Cluster
		opts RunOptions
	}{
		{"plain", plain, base},
		{"platform-map", hetero, base},
		{"straggler", plain, with(func(o *RunOptions) {
			o.Stragglers = []Straggler{{Worker: 1, Factor: 2.5, From: 1, Until: 4}, {Worker: 1, Factor: 1.5, From: 2}}
		})},
		{"contention", hetero, with(func(o *RunOptions) {
			o.Contention = []Contention{{Factor: 3, From: 2, Until: 5}}
		})},
		{"churn", plain, with(func(o *RunOptions) {
			o.Stragglers = []Straggler{{Worker: 2, Factor: 2, From: 0}}
			o.Events = []MembershipEvent{
				{Kind: WorkerFail, Worker: 1, Iteration: 1, FailPoint: 0.3},
				{Kind: PSShardFail, PS: 1, Iteration: 2, DegradedFactor: 3},
				{Kind: WorkerJoin, Worker: 1, Iteration: 3},
				{Kind: PSRecover, PS: 1, Iteration: 5},
				{Kind: WorkerLeave, Worker: 0, Iteration: 5},
			}
		})},
	}
}

// TestRunIterationParityWithFrozenSim replays RunIteration's exact
// simulator configuration through the frozen reference engine and checks
// every Iteration field, bit for bit, under each parity scenario: a plain
// cluster, a PlatformMap with device and channel overrides, active
// straggler and contention windows, and a churn timeline with a worker
// fail, its rejoin, a degraded PS shard and a reference-worker departure.
func TestRunIterationParityWithFrozenSim(t *testing.T) {
	for _, sc := range parityScenarios(t) {
		var tl *Timeline
		if len(sc.opts.Events) > 0 {
			var err error
			if tl, err = NewTimeline(sc.c.Config.Workers, sc.c.Config.PS, sc.opts.Events); err != nil {
				t.Fatal(err)
			}
		}
		for iter := 0; iter < 6; iter++ {
			opts := sc.opts
			opts.Seed = int64(iter) + 1
			opts.Iteration = iter
			got, err := sc.c.RunIteration(opts)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualIteration(t, fmt.Sprintf("%s/iter%d", sc.name, iter), refIteration(t, sc.c, opts, tl), got)
		}
	}
}

// TestRunParityWithFrozenSim pins the whole protocol: Run's aggregates over
// the summary run equal the pre-refactor aggregation (iterations through
// the frozen engine, recv orders deduplicated by joined string) under
// every parity scenario.
func TestRunParityWithFrozenSim(t *testing.T) {
	exp := Experiment{Warmup: 2, Measure: 4}
	for _, sc := range parityScenarios(t) {
		got, err := sc.c.Run(exp, sc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var tl *Timeline
		if len(sc.opts.Events) > 0 {
			if tl, err = NewTimeline(sc.c.Config.Workers, sc.c.Config.PS, sc.opts.Events); err != nil {
				t.Fatal(err)
			}
		}
		want := &Outcome{MinEfficiency: 1}
		var makespans, throughputs, effs []float64
		orders := map[string]bool{}
		for i := exp.Warmup; i < exp.Warmup+exp.Measure; i++ {
			opts := sc.opts
			opts.Seed = sc.opts.Seed + int64(i)*7919
			opts.Iteration = i
			it := refIteration(t, sc.c, opts, tl)
			want.Iterations = append(want.Iterations, *it)
			makespans = append(makespans, it.Makespan)
			throughputs = append(throughputs, it.Throughput(sc.c.Config.Batch(), it.ActiveWorkers))
			if it.Efficiency >= 0 {
				effs = append(effs, it.Efficiency)
				want.MinEfficiency = math.Min(want.MinEfficiency, it.Efficiency)
			}
			want.MaxStragglerPct = math.Max(want.MaxStragglerPct, it.StragglerPct)
			want.RecoverySeconds += it.RecoverySeconds
			orders[strings.Join(it.RecvOrder, "\x00")] = true
		}
		want.MeanThroughput = stats.Mean(throughputs)
		want.MeanMakespan = stats.Mean(makespans)
		want.MeanEfficiency = stats.Mean(effs)
		want.UniqueRecvOrders = len(orders)
		for i := range want.Iterations {
			mustEqualIteration(t, fmt.Sprintf("%s/measured%d", sc.name, i), &want.Iterations[i], &got.Iterations[i])
		}
		got.Iterations, want.Iterations = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: outcome %+v != %+v", sc.name, got, want)
		}
	}
}

// TestRunAllocsIndependentOfModel pins the summary run's allocation
// profile: the protocol's allocations are the Outcome and its per-iteration
// outputs, so their count does not depend on how many ops the model has.
func TestRunAllocsIndependentOfModel(t *testing.T) {
	counts := make([]float64, len(benchClusterModels))
	for i, name := range benchClusterModels {
		spec, _ := model.ByName(name)
		c, err := Build(Config{Model: spec, Mode: model.Training, Workers: 4, PS: 1, Platform: timing.EnvG()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.ComputeSchedule("tic", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := RunOptions{Schedule: s, Seed: 1, Jitter: -1, ReorderProb: 0.05}
		counts[i] = testing.AllocsPerRun(5, func() {
			if _, err := c.Run(DefaultExperiment, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[0] != counts[1] {
		t.Fatalf("cluster.Run allocations differ by model: %s %.0f, %s %.0f",
			benchClusterModels[0], counts[0], benchClusterModels[1], counts[1])
	}
}

// benchClusterModels is the BENCH_sim.json cluster-protocol model set.
var benchClusterModels = []string{"AlexNet v2", "Inception v2"}

// BenchmarkClusterRun measures the experiment protocol (the unit of work
// every bench experiment point and every /v1/simulate request executes) in
// steady state: 2 warmup iterations, counted but not simulated, and 10
// measured ones. Per model, the plain row is the shootout
// shape (4 workers, 1 PS, platform jitter, TIC); the whatif row is the
// shape of a what-if batch variant: 4 workers, 2 PS, jitter and reorder
// 0.05, one transient straggler window and a permanently slow worker.
func BenchmarkClusterRun(b *testing.B) {
	for _, name := range benchClusterModels {
		spec, ok := model.ByName(name)
		if !ok {
			b.Fatalf("model %q missing from catalog", name)
		}
		plain, err := Build(Config{
			Model:    spec,
			Mode:     model.Training,
			Workers:  4,
			PS:       1,
			Platform: timing.EnvG(),
		})
		if err != nil {
			b.Fatal(err)
		}
		whatif, err := Build(Config{
			Model:     spec,
			Mode:      model.Training,
			Workers:   4,
			PS:        2,
			Platform:  timing.EnvG(),
			Platforms: timing.NewPlatformMap(timing.EnvG()).SetDevice(WorkerDevice(3), timing.EnvG().SlowedCompute(2)),
		})
		if err != nil {
			b.Fatal(err)
		}
		cases := []struct {
			label string
			c     *Cluster
			opts  RunOptions
		}{
			{name, plain, RunOptions{Seed: 1, Jitter: -1}},
			{name + "/whatif", whatif, RunOptions{Seed: 1, Jitter: 0.05, ReorderProb: 0.05,
				Stragglers: []Straggler{{Worker: 1, Factor: 2, From: 1, Until: 3}}}},
		}
		exp := Experiment{Warmup: 2, Measure: 10}
		for _, tc := range cases {
			s, err := tc.c.ComputeSchedule("tic", 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			opts := tc.opts
			opts.Schedule = s
			b.Run(tc.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tc.c.Run(exp, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClusterChurn measures the same protocol under a worst-case
// membership-event mix (a mid-iteration worker fail with rejoin plus a PS
// shard fail/recover pair), isolating the overhead of the timeline
// resolution, the aborted-attempt re-simulation and the masked runs.
func BenchmarkClusterChurn(b *testing.B) {
	for _, name := range benchClusterModels {
		spec, ok := model.ByName(name)
		if !ok {
			b.Fatalf("model %q missing from catalog", name)
		}
		c, err := Build(Config{
			Model:    spec,
			Mode:     model.Training,
			Workers:  4,
			PS:       2,
			Platform: timing.EnvG(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := c.ComputeSchedule("tic", 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		exp := Experiment{Warmup: 2, Measure: 10}
		events := []MembershipEvent{
			{Kind: WorkerFail, Worker: 1, Iteration: 3},
			{Kind: WorkerJoin, Worker: 1, Iteration: 5},
			{Kind: PSShardFail, PS: 0, Iteration: 6},
			{Kind: PSRecover, PS: 0, Iteration: 8},
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(exp, RunOptions{Schedule: s, Seed: 1, Jitter: -1, Events: events}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// heldSchedule keeps BenchmarkComputeSchedule's last schedule alive.
var heldSchedule *core.Schedule

// BenchmarkComputeSchedule measures the schedule-cache miss below the
// service: ComputeSchedule plus the jitter-0 RunIteration that predicts the
// makespan, which is what the daemon's schedule build runs on an already
// cached cluster. The cluster is warm (simulator view and cost table
// built), the seed cycles over 12 values as the schedule-zipf workload's
// shapes do, and each op's schedule stays alive until the next op
// replaces it, as a schedule-cache entry keeps its schedule. The random
// row is the control: its order is seeded, so it is computed on every op.
func BenchmarkComputeSchedule(b *testing.B) {
	for _, name := range []string{"AlexNet v2", "ResNet-101 v2"} {
		spec, ok := model.ByName(name)
		if !ok {
			b.Fatalf("model %q missing from catalog", name)
		}
		c, err := Build(Config{Model: spec, Mode: model.Training, Workers: 2, PS: 1, Platform: timing.EnvG()})
		if err != nil {
			b.Fatal(err)
		}
		op := func(policy string, seed int64) error {
			s, err := c.ComputeSchedule(policy, 0, seed)
			if err != nil {
				return err
			}
			heldSchedule = s
			_, err = c.RunIteration(RunOptions{Schedule: s, Seed: seed, Jitter: 0})
			return err
		}
		for _, policy := range []string{"tic", "fifo", "random"} {
			if err := op(policy, 1); err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+policy, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op(policy, int64(1+i%12)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Sinks that keep BenchmarkClusterBuild's results alive.
var (
	heldCluster *Cluster
	heldDigest  string
	heldGraph   *graph.Graph
)

// BenchmarkClusterBuild times the per-graph work of a cluster-cache miss
// at 4 workers × 2 PS, training. build is Build, and also reports
// retained-B/op: the heap a built cluster keeps per op with one iteration
// run (see retainedPerOp); compact is Build then Compact, as the service
// caches a cluster, with the retained-B/op of a compacted cluster; digest
// is core.GraphDigest of the built graph, which the service keys schedules
// by; refworker is one reference worker built from the worker template,
// which ReferenceWorker pays on its first call and again after a GC has
// collected the held one.
func BenchmarkClusterBuild(b *testing.B) {
	for _, name := range []string{"AlexNet v2", "ResNet-101 v2"} {
		spec, ok := model.ByName(name)
		if !ok {
			b.Fatalf("model %q missing from catalog", name)
		}
		cfg := Config{Model: spec, Mode: model.Training, Workers: 4, PS: 2, Platform: timing.EnvG()}
		c, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if heldCluster, err = Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(retainedPerOp(b, cfg, false).total, "retained-B/op")
		})
		b.Run(name+"/compact", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if heldCluster, err = Build(cfg); err != nil {
					b.Fatal(err)
				}
				if err := heldCluster.Compact(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(retainedPerOp(b, cfg, true).total, "retained-B/op")
		})
		b.Run(name+"/digest", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				heldDigest = core.GraphDigest(c.Graph)
			}
		})
		b.Run(name+"/refworker", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				heldGraph = c.held.buildReferenceWorker()
			}
		})
	}
}
