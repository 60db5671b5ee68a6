package cluster

import (
	"fmt"
	"slices"

	"tictac/internal/core"
	"tictac/internal/sim"
	"tictac/internal/stats"
)

// Iteration summarizes one synchronized training/inference step.
type Iteration struct {
	// Makespan is the iteration time: all workers synchronize at the end
	// of the step, so the slowest path defines it.
	Makespan float64
	// WorkerFinish is each worker's local finish time.
	WorkerFinish []float64
	// StragglerPct is the maximum time any worker spends waiting for the
	// iteration to complete, as a percentage of the iteration time (§6.3).
	StragglerPct float64
	// Efficiency is the scheduling-efficiency metric E (eq. 3) evaluated on
	// the reference worker partition with this iteration's measured op
	// times and the worker's measured makespan.
	Efficiency float64
	// RecvOrder is worker 0's parameter arrival order this iteration.
	RecvOrder []string
	// ReorderEvents counts injected schedule inversions.
	ReorderEvents int
	// ActiveWorkers is the number of workers that executed this
	// iteration's reported run (Config.Workers unless membership events
	// removed some).
	ActiveWorkers int
	// RecoverySeconds is the churn overhead folded into Makespan: wasted
	// aborted-attempt time plus PS shard reload/resync time. Zero without
	// membership events.
	RecoverySeconds float64
	// Events reports the per-event recovery cost of every membership
	// event that struck this iteration.
	Events []EventOutcome
	// SeedFree reports that no seeded draw could have changed the
	// iteration: sim.Summary.SeedFree held for the reported run and, when
	// a fail struck, for the aborted attempt. The same options under any
	// other seed give the same iteration.
	SeedFree bool
}

// EventOutcome is the recovery cost of one membership event.
type EventOutcome struct {
	// Kind is the event type.
	Kind EventKind
	// Worker is the target worker for worker events, -1 otherwise.
	Worker int
	// PS is the target shard for PS events, -1 otherwise.
	PS int
	// WastedSeconds is the aborted-attempt wall time attributable to this
	// event (fails only): its fail point times the aborted run's makespan.
	WastedSeconds float64
	// ReloadSeconds is the time to re-serve or resync a PS shard's hosted
	// state over its network link (PS fail and recover events).
	ReloadSeconds float64
	// RefetchBytes counts parameter bytes moved to recover: the full
	// parameter set for a worker fail's re-fetch or a join's cold-start
	// pull, the shard's hosted bytes for PS events.
	RefetchBytes int64
}

// Throughput returns samples/second for this iteration given the per-worker
// batch size: all workers process their batch each step.
func (it Iteration) Throughput(batch, workers int) float64 {
	if it.Makespan <= 0 {
		return 0
	}
	return float64(batch*workers) / it.Makespan
}

// Straggler slows one worker for a contiguous window of iterations,
// modelling a transient hardware or co-tenancy slowdown (thermal
// throttling, a noisy neighbour). It scales the duration of the worker's
// device-local ops — compute, not transfers; use Contention or a
// PlatformMap channel override to slow the network.
type Straggler struct {
	// Worker is the index of the slowed worker.
	Worker int
	// Factor multiplies every affected op's duration (>1 = slower).
	// Factors <= 0 and 1 are no-ops.
	Factor float64
	// From is the first affected iteration index, counted across the
	// experiment protocol including warmup (Run numbers iterations 0..N-1
	// and stamps RunOptions.Iteration on the measured ones).
	From int
	// Until is the first unaffected iteration again; Until <= From means
	// the slowdown never ends once it starts.
	Until int
}

// active reports whether the window covers the given iteration index.
func (s Straggler) active(iter int) bool {
	return iter >= s.From && (s.Until <= s.From || iter < s.Until)
}

// slows reports whether the straggler changes durations at iteration iter.
func (s Straggler) slows(iter int) bool {
	return s.Factor > 0 && s.Factor != 1 && s.active(iter)
}

// Contention models background network traffic: every channel transfer's
// duration is multiplied by Factor during iterations [From, Until), with
// the same window semantics as Straggler.
type Contention struct {
	// Factor multiplies transfer durations (>1 = slower network).
	Factor float64
	// From is the first affected iteration (inclusive).
	From int
	// Until is the first unaffected iteration; <= From means open-ended.
	Until int
}

func (c Contention) active(iter int) bool {
	return iter >= c.From && (c.Until <= c.From || iter < c.Until)
}

// RunOptions controls a measured run.
type RunOptions struct {
	// Schedule enforces transfer priorities (nil = baseline).
	Schedule *core.Schedule
	// Seed seeds the iteration's randomness.
	Seed int64
	// Jitter overrides the platform jitter when >= 0; pass -1 to use the
	// platform default.
	Jitter float64
	// ReorderProb injects gRPC-style priority inversions.
	ReorderProb float64
	// Iteration is this iteration's index within the experiment protocol;
	// it selects which Straggler and Contention windows are active. Run
	// stamps it, counting warmup iterations; set it only when calling
	// RunIteration directly.
	Iteration int
	// Stragglers injects transient per-worker compute slowdowns.
	Stragglers []Straggler
	// Contention injects background network-contention windows.
	Contention []Contention
	// Events injects deterministic cluster-membership changes (joins,
	// leaves, mid-iteration failures, PS shard failures/recoveries),
	// windowed by Iteration like Stragglers. See MembershipEvent and
	// docs/churn-scenarios.md. An empty slice is bit-identical to the
	// churn-free path.
	Events []MembershipEvent

	// timeline is the validated, memoized view of Events. Run builds it
	// once per experiment; RunIteration builds one on the fly when called
	// directly with Events set.
	timeline *Timeline
}

// RunIteration simulates one synchronized iteration.
func (c *Cluster) RunIteration(opts RunOptions) (*Iteration, error) {
	if err := c.checkStragglers(opts.Stragglers); err != nil {
		return nil, err
	}
	tl := opts.timeline
	if tl == nil && len(opts.Events) > 0 {
		var err error
		tl, err = NewTimeline(c.Config.Workers, c.Config.PS, opts.Events)
		if err != nil {
			return nil, err
		}
	}
	v, err := c.simView()
	if err != nil {
		return nil, err
	}
	it := &Iteration{}
	if err := c.iterate(v, opts, tl, c.jitter(opts), &factors{}, it); err != nil {
		return nil, err
	}
	return it, nil
}

// checkStragglers rejects straggler windows on workers outside the fleet.
func (c *Cluster) checkStragglers(stragglers []Straggler) error {
	for _, s := range stragglers {
		if s.Worker < 0 || s.Worker >= c.Config.Workers {
			return fmt.Errorf("cluster: straggler worker %d out of range [0, %d)", s.Worker, c.Config.Workers)
		}
	}
	return nil
}

// jitter resolves the run's jitter: the option when >= 0, else the
// platform default.
func (c *Cluster) jitter(opts RunOptions) float64 {
	if opts.Jitter < 0 {
		return c.Config.Platform.Jitter
	}
	return opts.Jitter
}

// iterate simulates one protocol iteration through the summary run and
// reads its outcome into it. Without membership events it is one
// simulation; with them see the churn notes below. f is the caller's
// scratch for the per-group factor tables.
//
// Under membership events, when a fail strikes this iteration the fleet's
// aborted attempt is simulated with the pre-fail membership on a derived
// seed; the attempt's wall time up to the latest fail point is lost (its
// in-flight transfers are dropped with it), and the reported run then
// executes on the post-fail fleet at the iteration's own seed, re-fetching
// parameters through its recv ops. PS shard failures and recoveries add
// the shard's reload time. Makespan is the sum of that recovery overhead
// and the reported run.
//
//tictac:hotpath
func (c *Cluster) iterate(v *simView, opts RunOptions, tl *Timeline, jitter float64, f *factors, it *Iteration) error {
	costs, err := c.costTable()
	if err != nil {
		return err
	}
	plan := sim.Plan{
		Costs:       costs,
		Groups:      v.groups,
		Schedule:    opts.Schedule,
		Seed:        opts.Seed,
		Jitter:      jitter,
		ReorderProb: opts.ReorderProb,
	}
	if tl == nil || tl.Empty() {
		plan.Scale = f.scaleFor(v, opts, nil)
		return v.runner.Summarize(&plan, func(s *sim.Summary) {
			it.Makespan = s.Makespan
			it.ActiveWorkers = c.Config.Workers
			it.SeedFree = s.SeedFree
			v.observe(s, nil, it)
		})
	}

	st := tl.stateAt(opts.Iteration)
	recovery := 0.0
	var abortedMakespan float64
	probeSeedFree := true
	if st.preActive != nil {
		probe := plan
		probe.Seed = abortSeed(opts.Seed)
		probe.Scale = f.scaleFor(v, opts, st.preDegraded)
		probe.Masked = f.maskFor(v, st.preActive)
		err := v.runner.Summarize(&probe, func(s *sim.Summary) { abortedMakespan, probeSeedFree = s.Makespan, s.SeedFree })
		if err != nil {
			return err
		}
		maxPoint := 0.0
		for _, e := range st.eventsHere {
			if (e.Kind == WorkerFail || e.Kind == PSShardFail) && e.failPoint() > maxPoint {
				maxPoint = e.failPoint()
			}
		}
		recovery += float64(maxPoint * abortedMakespan)
	}
	plan.Scale = f.scaleFor(v, opts, st.degraded)
	plan.Masked = f.maskFor(v, st.active)
	return v.runner.Summarize(&plan, func(s *sim.Summary) {
		it.Events, recovery = c.eventOutcomes(st.eventsHere, abortedMakespan, recovery)
		it.Makespan = recovery + s.Makespan
		it.RecoverySeconds = recovery
		it.ActiveWorkers = st.activeN
		it.SeedFree = probeSeedFree && s.SeedFree
		// Straggler effect is measured within the reported run, over the
		// workers that actually executed it.
		v.observe(s, st.active, it)
	})
}

// abortSeed derives the aborted attempt's RNG stream from the iteration
// seed — distinct from the reported run's stream (the retry re-draws its
// noise) yet fully determined by it.
func abortSeed(seed int64) int64 {
	return seed*6364136223846793005 + 1442695040888963407
}

// shardReload is the time to re-serve a shard's hosted bytes over its
// network link: one transfer setup plus the bytes at channel bandwidth,
// using the shard device's resolved platform.
func (c *Cluster) shardReload(ps int, bytes int64) float64 {
	plat := c.Config.Platform
	if c.Config.Platforms != nil {
		plat = c.Config.Platforms.For(PSDevice(ps))
	}
	return plat.NetLatency + float64(bytes)/plat.NetBandwidth
}

// eventOutcomes prices the membership events striking one iteration and
// adds their shard reload times to recovery, event by event.
func (c *Cluster) eventOutcomes(here []MembershipEvent, abortedMakespan, recovery float64) ([]EventOutcome, float64) {
	var totalParamBytes int64
	for _, p := range c.Params {
		totalParamBytes += p.Bytes
	}
	loads := c.PSLoads()
	events := make([]EventOutcome, 0, len(here))
	for _, e := range here {
		out := EventOutcome{Kind: e.Kind, Worker: -1, PS: -1}
		switch e.Kind {
		case WorkerJoin:
			out.Worker = e.Worker
			out.RefetchBytes = totalParamBytes
		case WorkerLeave:
			out.Worker = e.Worker
		case WorkerFail:
			out.Worker = e.Worker
			out.WastedSeconds = e.failPoint() * abortedMakespan
			out.RefetchBytes = totalParamBytes
		case PSShardFail:
			out.PS = e.PS
			out.WastedSeconds = e.failPoint() * abortedMakespan
			out.ReloadSeconds = c.shardReload(e.PS, loads[e.PS])
			out.RefetchBytes = loads[e.PS]
			recovery += out.ReloadSeconds
		case PSRecover:
			out.PS = e.PS
			out.ReloadSeconds = c.shardReload(e.PS, loads[e.PS])
			out.RefetchBytes = loads[e.PS]
			recovery += out.ReloadSeconds
		}
		events = append(events, out)
	}
	return events, recovery
}

// Experiment mirrors the paper's measurement protocol (§6): discard warmup
// iterations, then record measured iterations; report the mean for
// throughput and the maximum for straggler effect and efficiency deviation.
type Experiment struct {
	// Warmup iterations to discard (the paper discards 2). They are
	// counted, not simulated: simulated iterations share no state, so a
	// discarded one would change nothing. They offset the measured
	// iterations' seeds (Seed + i·7919) and window indices (Iteration i),
	// which start at i = Warmup.
	Warmup int
	// Measure iterations to record (the paper records 10).
	Measure int
}

// DefaultExperiment is the paper's 2-warmup/10-measured protocol.
var DefaultExperiment = Experiment{Warmup: 2, Measure: 10}

// Outcome aggregates measured iterations.
type Outcome struct {
	// Iterations holds the measured (post-warmup) iterations.
	Iterations []Iteration
	// MeanThroughput is samples/second averaged over measured iterations.
	MeanThroughput float64
	// MeanMakespan is the average iteration time in seconds.
	MeanMakespan float64
	// MaxStragglerPct is the worst straggler effect observed.
	MaxStragglerPct float64
	// MinEfficiency is the worst scheduling efficiency observed.
	MinEfficiency float64
	// MeanEfficiency is the average scheduling efficiency.
	MeanEfficiency float64
	// UniqueRecvOrders counts distinct worker-0 parameter arrival orders
	// across measured iterations (§2.2's uniqueness observation).
	UniqueRecvOrders int
	// RecoverySeconds totals the membership-event recovery overhead
	// (aborted-attempt waste plus shard reloads) across measured
	// iterations. Zero without membership events.
	RecoverySeconds float64
}

// Run executes the experiment protocol against the cluster.
func (c *Cluster) Run(exp Experiment, opts RunOptions) (*Outcome, error) {
	if exp.Measure < 1 {
		return nil, fmt.Errorf("cluster: experiment needs >= 1 measured iteration")
	}
	if exp.Warmup < 0 {
		return nil, fmt.Errorf("cluster: experiment warmup %d is negative", exp.Warmup)
	}
	var tl *Timeline
	if len(opts.Events) > 0 {
		var err error
		tl, err = NewTimeline(c.Config.Workers, c.Config.PS, opts.Events)
		if err != nil {
			return nil, err
		}
	}
	if err := c.checkStragglers(opts.Stragglers); err != nil {
		return nil, err
	}
	v, err := c.simView()
	if err != nil {
		return nil, err
	}
	jitter := c.jitter(opts)
	out := &Outcome{
		MinEfficiency: 1,
		Iterations:    make([]Iteration, exp.Measure),
	}
	makespans := make([]float64, 0, exp.Measure)
	throughputs := make([]float64, 0, exp.Measure)
	effs := make([]float64, 0, exp.Measure)
	orders := make([][]string, 0, exp.Measure)
	batch := c.Config.Batch()
	var f factors
	// Warmup iterations are counted, not simulated (see Experiment.Warmup).
	for i := exp.Warmup; i < exp.Warmup+exp.Measure; i++ {
		iterOpts := opts
		iterOpts.Seed = opts.Seed + int64(i)*7919 // distinct per-iteration stream
		iterOpts.Iteration = i                    // straggler/contention/membership windows index off this
		it := &out.Iterations[i-exp.Warmup]
		if err := c.iterate(v, iterOpts, tl, jitter, &f, it); err != nil {
			return nil, err
		}
		makespans = append(makespans, it.Makespan)
		// A chained graph processes batch × iterations samples per worker;
		// only the iteration's active workers contribute samples.
		throughputs = append(throughputs, it.Throughput(batch*c.Config.iterations(), it.ActiveWorkers))
		if it.Efficiency >= 0 {
			effs = append(effs, it.Efficiency)
			if it.Efficiency < out.MinEfficiency {
				out.MinEfficiency = it.Efficiency
			}
		}
		if it.StragglerPct > out.MaxStragglerPct {
			out.MaxStragglerPct = it.StragglerPct
		}
		out.RecoverySeconds += it.RecoverySeconds
		orders = addRecvOrder(orders, it.RecvOrder)
	}
	out.MeanThroughput = stats.Mean(throughputs)
	out.MeanMakespan = stats.Mean(makespans)
	out.MeanEfficiency = stats.Mean(effs)
	out.UniqueRecvOrders = len(orders)
	return out, nil
}

// addRecvOrder adds keys to the distinct worker-0 arrival orders unless an
// equal order is already there. Orders of one run share their key strings,
// so comparing two of them is a pointer comparison per key.
func addRecvOrder(orders [][]string, keys []string) [][]string {
	for _, o := range orders {
		if slices.Equal(o, keys) {
			return orders
		}
	}
	return append(orders, keys)
}
