package bench

import (
	"io"
	"math"

	"tictac/internal/bench/engine"
	"tictac/internal/cluster"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// The churn experiment measures what the paper's static testbed never had
// to: how much iteration time a scheduling policy forfeits when the fleet
// itself changes mid-run. Each scenario drives a deterministic
// membership-event script (cluster.MembershipEvent) against fleets of
// 16–256 workers at the paper's 1:4 PS:worker ratio, and every row is
// normalized against the same (model, policy, workers) triple on a stable
// fleet — so "churn cost" reads directly as the fraction of a quiet
// iteration the events burn, with the recovery overhead (lost work,
// parameter re-fetch, shard reloads) broken out separately.
//
// Scenarios:
//
//   - worker-churn — clean scale-down/scale-up cycles: a rotating worker
//     leaves at each strike iteration and rejoins two iterations later. No
//     work is lost; the cost is the rejoining worker's cold-start fetch
//     and running short-handed in between.
//   - worker-fail — the same rotation, but the worker is killed
//     mid-iteration: the fleet's partial work is lost, the iteration
//     re-runs without the worker, and the parameter set is re-fetched on
//     rejoin.
//   - ps-fail — a rotating parameter-server shard fails mid-iteration and
//     recovers two iterations later, paying checkpoint reloads and serving
//     its parameters degraded in between.
//
// The event script is pure arithmetic over (scenario, rate, fleet size) —
// no RNG — so the sweep is bit-identical at any -jobs width and across
// runs, and worker 0 is never struck: it is the efficiency reference
// worker, and keeping it resident keeps every row's efficiency comparable.

// Churn scenario names, in presentation order.
const (
	ScenarioWorkerChurn = "worker-churn"
	ScenarioWorkerFail  = "worker-fail"
	ScenarioPSFail      = "ps-fail"
)

// scenarioStable tags the event-free normalization anchor rows.
const scenarioStable = "stable"

// churnScenarios lists the churn scenarios in presentation order.
var churnScenarios = []string{ScenarioWorkerChurn, ScenarioWorkerFail, ScenarioPSFail}

// churnWorkers are the fleet sizes the sweep runs. Each is at least 8, so
// the event script never empties the fleet or re-fails a degraded shard.
var churnWorkers = []int{16, 64, 256}

// churnRates are the event rates in strikes per protocol iteration.
var churnRates = []float64{0.25, 1}

// ChurnRow is one (model, policy, scenario, workers, rate) point of the
// churn sweep.
type ChurnRow struct {
	Model    string
	Policy   string
	Scenario string
	// Workers is the fleet size; PS is always Workers/4 (the paper's
	// ratio, Fig 7).
	Workers int
	// Rate is the event-script strike rate in strikes per protocol
	// iteration (0 for the stable anchor rows).
	Rate float64
	// Events is the number of membership events the script injected.
	Events int
	// MeanIterSec is the mean measured iteration time, recovery included.
	MeanIterSec float64
	// RecoverySec is the total recovery overhead (lost work, shard
	// reloads) across the measured iterations.
	RecoverySec float64
	// RecoveryPct is RecoverySec as a percentage of total measured time.
	RecoveryPct float64
	// NormVsStable is MeanIterSec divided by the stable baseline of the
	// same (model, policy, workers): how much of the iteration the churn
	// costs under this policy.
	NormVsStable float64
}

// ChurnSummary aggregates one (policy, scenario) pair across fleet sizes
// and rates — the policy-robustness-under-churn headline.
type ChurnSummary struct {
	Policy   string
	Scenario string
	// GeomeanNormVsStable is the geometric mean of NormVsStable: 1.0
	// means the policy fully absorbs the churn, higher means it forfeits
	// proportionally more of its quiet-fleet iteration time.
	GeomeanNormVsStable float64
	// MeanRecoveryPct averages RecoveryPct across the pair's rows.
	MeanRecoveryPct float64
}

// ChurnResult bundles the per-point rows with the robustness summary.
type ChurnResult struct {
	Rows    []ChurnRow
	Summary []ChurnSummary
}

// churnModels resolves the model sweep: the cheapest Table 1 model by
// default (the sweep's cost is dominated by the 256-worker graphs), or the
// subset named by Options.Models (validated like the shootout's).
func churnModels(o Options) ([]model.Spec, error) {
	if o.Models == nil {
		o.Models = []string{"AlexNet v2"}
	}
	return shootoutModels(o)
}

// churnPolicies resolves the policy sweep: the paper's headline policy
// against the stock-TensorFlow stand-in by default (a full-registry sweep
// at 256 workers is too slow to be the default), or the subset named by
// Options.Policies (validated like the shootout's).
func churnPolicies(o Options) ([]string, error) {
	if o.Policies == nil {
		o.Policies = []string{sched.TIC, sched.Random}
	}
	return shootoutPolicies(o)
}

// churnPS is the parameter-server count for a churn fleet (the paper's
// 1:4 PS:worker ratio, Fig 7).
func churnPS(workers int) int { return workers / 4 }

// ChurnEvents builds the deterministic membership-event script for one
// (scenario, fleet, rate) cell over protocol iterations [start, total).
// Strikes land every round(1/rate) iterations beginning at start (the
// first measured iteration when start = warmup, so the anchor-normalized
// cost shows up entirely in measured numbers); each strike's departure is
// undone two iterations later when that still falls inside the protocol.
// Targets rotate over workers 1..workers-1 (worker 0 is the efficiency
// reference) and shards 0..ps-1, which with workers >= 8 guarantees a
// valid event grammar at every rate: the fleet never empties, a departed
// worker has rejoined before its next strike, and a shard has recovered
// before it fails again. The script is a pure function of its arguments —
// no RNG — so equal cells share digests and schedules stay bit-identical.
func ChurnEvents(scenario string, workers, ps, start, total int, rate float64) []cluster.MembershipEvent {
	if rate <= 0 {
		return nil
	}
	interval := int(1/rate + 0.5)
	if interval < 1 {
		interval = 1
	}
	var evs []cluster.MembershipEvent
	n := 0
	for it := start; it < total; it += interval {
		switch scenario {
		case ScenarioWorkerChurn:
			w := 1 + n%(workers-1)
			evs = append(evs, cluster.MembershipEvent{Kind: cluster.WorkerLeave, Worker: w, Iteration: it})
			if it+2 < total {
				evs = append(evs, cluster.MembershipEvent{Kind: cluster.WorkerJoin, Worker: w, Iteration: it + 2})
			}
		case ScenarioWorkerFail:
			w := 1 + n%(workers-1)
			evs = append(evs, cluster.MembershipEvent{Kind: cluster.WorkerFail, Worker: w, Iteration: it})
			if it+2 < total {
				evs = append(evs, cluster.MembershipEvent{Kind: cluster.WorkerJoin, Worker: w, Iteration: it + 2})
			}
		case ScenarioPSFail:
			p := n % ps
			evs = append(evs, cluster.MembershipEvent{Kind: cluster.PSShardFail, PS: p, Iteration: it})
			if it+2 < total {
				evs = append(evs, cluster.MembershipEvent{Kind: cluster.PSRecover, PS: p, Iteration: it + 2})
			}
		}
		n++
	}
	return evs
}

// churnPoint is one engine work item.
type churnPoint struct {
	spec     model.Spec
	policy   string
	scenario string
	workers  int
	rate     float64
}

// runChurnPoint resolves the point's cluster and policy schedule through
// the build cache (shared across every scenario and rate of the same
// fleet, since membership events never change the topology or the
// schedule — that is the point: the schedule was computed for the full
// fleet, and churn tests how it degrades) and measures under the point's
// event script. Stable rows run with no events, so their path is
// bit-identical to an event-free run of the same configuration.
func runChurnPoint(p churnPoint, o Options, bc *buildCache) (ChurnRow, error) {
	cfg := cluster.Config{
		Model:    p.spec,
		Mode:     model.Training,
		Workers:  p.workers,
		PS:       churnPS(p.workers),
		Platform: timing.EnvG(),
	}
	c, s, err := bc.schedule(cfg, p.policy, 5, o.Seed)
	if err != nil {
		return ChurnRow{}, err
	}
	exp := o.experiment()
	var evs []cluster.MembershipEvent
	if p.scenario != scenarioStable {
		evs = ChurnEvents(p.scenario, p.workers, churnPS(p.workers), exp.Warmup, exp.Warmup+exp.Measure, p.rate)
	}
	out, err := c.Run(exp, cluster.RunOptions{Schedule: s, Seed: o.Seed + 1000003, Jitter: -1, Events: evs})
	if err != nil {
		return ChurnRow{}, err
	}
	row := ChurnRow{
		Model:       p.spec.Name,
		Policy:      p.policy,
		Scenario:    p.scenario,
		Workers:     p.workers,
		Rate:        p.rate,
		Events:      len(evs),
		MeanIterSec: out.MeanMakespan,
		RecoverySec: out.RecoverySeconds,
	}
	if total := out.MeanMakespan * float64(exp.Measure); total > 0 {
		row.RecoveryPct = out.RecoverySeconds / total * 100
	}
	return row, nil
}

// Churn sweeps scenario × rate × policy over the fleet-size ladder on the
// parallel engine, normalizing every row against the stable baseline of
// its (model, policy, workers) triple. One engine point per row; every
// point's event script and seeds derive from the options alone, so output
// is bit-identical at any -jobs width.
func Churn(o Options) (*ChurnResult, error) {
	o = o.withDefaults()
	specs, err := churnModels(o)
	if err != nil {
		return nil, err
	}
	policies, err := churnPolicies(o)
	if err != nil {
		return nil, err
	}
	var points []churnPoint
	for _, spec := range specs {
		for _, w := range churnWorkers {
			for _, policy := range policies {
				points = append(points, churnPoint{spec, policy, scenarioStable, w, 0})
				for _, scenario := range churnScenarios {
					for _, rate := range churnRates {
						points = append(points, churnPoint{spec, policy, scenario, w, rate})
					}
				}
			}
		}
	}
	bc := newBuildCache()
	rows, err := engine.Map(o.jobs(), len(points), func(i int) (ChurnRow, error) {
		return runChurnPoint(points[i], o, bc)
	})
	if err != nil {
		return nil, err
	}
	// Normalize against the stable anchor of each (model, policy, workers).
	stable := make(map[string]float64)
	key := func(r ChurnRow) string {
		return r.Model + "\x00" + r.Policy + "\x00" + itoa(r.Workers)
	}
	for _, r := range rows {
		if r.Scenario == scenarioStable {
			stable[key(r)] = r.MeanIterSec
		}
	}
	for i := range rows {
		if base := stable[key(rows[i])]; base > 0 {
			rows[i].NormVsStable = rows[i].MeanIterSec / base
		}
	}
	// Robustness summary per (policy, scenario), across fleets × rates.
	var summary []ChurnSummary
	for _, policy := range policies {
		for _, scenario := range churnScenarios {
			logSum, pctSum := 0.0, 0.0
			n := 0
			for _, r := range rows {
				if r.Policy != policy || r.Scenario != scenario || r.NormVsStable <= 0 {
					continue
				}
				logSum += math.Log(r.NormVsStable)
				pctSum += r.RecoveryPct
				n++
			}
			if n == 0 {
				continue
			}
			summary = append(summary, ChurnSummary{
				Policy:              policy,
				Scenario:            scenario,
				GeomeanNormVsStable: math.Exp(logSum / float64(n)),
				MeanRecoveryPct:     pctSum / float64(n),
			})
		}
	}
	return &ChurnResult{Rows: rows, Summary: summary}, nil
}

// WriteChurn renders the churn sweep as a per-point table plus the
// policy-robustness summary.
func WriteChurn(w io.Writer, res *ChurnResult) {
	var cells [][]string
	for _, r := range res.Rows {
		cells = append(cells, []string{
			r.Model, r.Policy, r.Scenario, itoa(r.Workers), f2(r.Rate), itoa(r.Events),
			f3(r.MeanIterSec), f3(r.RecoverySec), f1(r.RecoveryPct), f3(r.NormVsStable),
		})
	}
	RenderTable(w, "Churn: membership events vs policy (training, PS:W = 1:4, envG; normalized to each triple's stable fleet)",
		[]string{"Model", "Policy", "Scenario", "Workers", "Rate", "Events", "IterSec", "RecoverySec", "Recovery%", "NormIter"}, cells)
	var sum [][]string
	for _, s := range res.Summary {
		sum = append(sum, []string{s.Policy, s.Scenario, f3(s.GeomeanNormVsStable), f1(s.MeanRecoveryPct)})
	}
	RenderTable(w, "Churn: policy robustness (geomean normalized iteration time across fleets × rates)",
		[]string{"Policy", "Scenario", "GeomeanNormIter", "MeanRecovery%"}, sum)
}
