package bench

import (
	"io"
	"math"

	"tictac/internal/bench/engine"
	"tictac/internal/cluster"
	"tictac/internal/model"
	"tictac/internal/timing"
)

// The hetero experiment family asks the question the paper's §6.3
// straggler measurements motivate but its homogeneous testbed cannot:
// which scheduling policy degrades gracefully when the hardware is
// unequal? Each scenario perturbs the shootout's reference configuration
// (training, 4 workers, 1 PS, envG) one way, at a sweep of severities, and
// every row is normalized against the same (model, policy) pair on the
// unperturbed cluster — so "robustness" reads directly as how little of
// the homogeneous speedup a policy forfeits under stress.
//
// Scenarios:
//
//   - straggler  — worker 0's compute is statically k× slower (a lower-bin
//     or thermally limited device), expressed as a PlatformMap device
//     override; schedules are recomputed on the hetero cluster, so
//     timing-aware policies get to adapt.
//   - transient  — worker 0 is k× slower only during the middle half of
//     the measured iterations (co-tenancy interference), injected per run
//     via cluster.Straggler windows; the schedule cannot anticipate it.
//   - contention — every channel's transfers are k× slower for the whole
//     run (background network traffic), injected via cluster.Contention.
//   - asym-link  — worker 0's channel to the PS is k× narrower (a
//     congested uplink), a PlatformMap channel override.
//
// The homogeneous baseline (severity 1, scenario "homog") is executed with
// exactly the shootout's pipeline and seeds, so its numbers are
// bit-identical to the shootout rows for the same models and policies.

// Hetero scenario names, in presentation order.
const (
	ScenarioStraggler  = "straggler"
	ScenarioTransient  = "transient"
	ScenarioContention = "contention"
	ScenarioAsymLink   = "asym-link"
)

// scenarioHomog tags the severity-1 normalization anchor rows.
const scenarioHomog = "homog"

// heteroScenarios lists the hetero scenarios in presentation order.
var heteroScenarios = []string{ScenarioStraggler, ScenarioTransient, ScenarioContention, ScenarioAsymLink}

// heteroSeverities are the slow-down factors every scenario is run at.
var heteroSeverities = []float64{2, 4}

// HeteroRow is one (model, policy, scenario, severity) point of the
// heterogeneity sweep.
type HeteroRow struct {
	Model    string
	Policy   string
	Scenario string
	// Severity is the slow-down factor k applied by the scenario (1 for
	// the homogeneous baseline rows).
	Severity float64
	// MeanIterSec is the mean measured iteration time.
	MeanIterSec float64
	// MaxStragglerPct is the worst §6.3 straggler effect observed: the
	// maximum time any worker spent waiting, as % of iteration time.
	MaxStragglerPct float64
	// NormVsHomog is MeanIterSec divided by the homogeneous baseline of
	// the same (model, policy): how much of the iteration the injected
	// heterogeneity costs under this policy.
	NormVsHomog float64
}

// HeteroSummary aggregates one (policy, scenario) pair across models and
// severities — the policy-robustness headline.
type HeteroSummary struct {
	Policy   string
	Scenario string
	// GeomeanNormVsHomog is the geometric mean of NormVsHomog: 1.0 means
	// the policy fully absorbs the perturbation, higher means it forfeits
	// proportionally more of its homogeneous iteration time.
	GeomeanNormVsHomog float64
	// MeanStragglerPct averages MaxStragglerPct across the pair's rows.
	MeanStragglerPct float64
}

// HeteroResult bundles the per-point rows with the robustness summary.
type HeteroResult struct {
	Rows    []HeteroRow
	Summary []HeteroSummary
}

// heteroModels resolves the model sweep: a cheap/communication-bound
// Table 1 pair by default, or the subset named by Options.Models
// (validated like the shootout's).
func heteroModels(o Options) ([]model.Spec, error) {
	if o.Models == nil {
		o.Models = []string{"AlexNet v2", "VGG-16"}
	}
	return shootoutModels(o)
}

// heteroPoint is one engine work item. platforms carries the scenario's
// static PlatformMap override (nil for homog/transient/contention); it is
// built once per (scenario, severity) in Hetero so that points sharing a
// topology also share the pointer — which is what lets the build cache
// recognize them as the same cluster.
type heteroPoint struct {
	spec      model.Spec
	policy    string
	scenario  string
	severity  float64
	platforms *timing.PlatformMap
}

// scenarioPlatforms returns the static PlatformMap override of a
// (scenario, severity) pair, or nil when the scenario injects per-run
// windows instead of static hardware asymmetry.
func scenarioPlatforms(scenario string, severity float64) *timing.PlatformMap {
	switch scenario {
	case ScenarioStraggler:
		return timing.NewPlatformMap(timing.EnvG()).
			SetDevice(cluster.WorkerDevice(0), timing.EnvG().SlowedCompute(severity))
	case ScenarioAsymLink:
		return timing.NewPlatformMap(timing.EnvG()).
			SetChannel(cluster.ChannelResource(0, 0),
				timing.ChannelCost{Bandwidth: timing.EnvG().NetBandwidth / severity})
	}
	return nil
}

// runHeteroPoint resolves the point's cluster and policy schedule through
// the build cache and measures under any per-run injection. The homog path
// is kept literally identical to the shootout's: same Config literal, same
// schedule warmup, same run seeds.
func runHeteroPoint(p heteroPoint, o Options, bc *buildCache) (HeteroRow, error) {
	cfg := cluster.Config{
		Model:     p.spec,
		Mode:      model.Training,
		Workers:   4,
		PS:        1,
		Platform:  timing.EnvG(),
		Platforms: p.platforms,
	}
	c, s, err := bc.schedule(cfg, p.policy, 5, o.Seed)
	if err != nil {
		return HeteroRow{}, err
	}
	opts := cluster.RunOptions{Schedule: s, Seed: o.Seed + 1000003, Jitter: -1}
	exp := o.experiment()
	switch p.scenario {
	case ScenarioTransient:
		// Slow worker 0 during the middle half of the measured iterations
		// (iteration indices count warmup first, matching cluster.Run).
		from := exp.Warmup + exp.Measure/4
		until := exp.Warmup + exp.Measure - exp.Measure/4
		if until <= from {
			until = from + 1
		}
		opts.Stragglers = []cluster.Straggler{{Worker: 0, Factor: p.severity, From: from, Until: until}}
	case ScenarioContention:
		opts.Contention = []cluster.Contention{{Factor: p.severity}}
	}
	out, err := c.Run(exp, opts)
	if err != nil {
		return HeteroRow{}, err
	}
	return HeteroRow{
		Model:           p.spec.Name,
		Policy:          p.policy,
		Scenario:        p.scenario,
		Severity:        p.severity,
		MeanIterSec:     out.MeanMakespan,
		MaxStragglerPct: out.MaxStragglerPct,
	}, nil
}

// Hetero sweeps scenario × severity × policy over the model set on the
// parallel engine, normalizing every row against the homogeneous baseline
// of its (model, policy) pair. One engine point per row; every point
// derives its randomness from the base seed only, so output is
// bit-identical at any -jobs width.
func Hetero(o Options) (*HeteroResult, error) {
	o = o.withDefaults()
	specs, err := heteroModels(o)
	if err != nil {
		return nil, err
	}
	policies, err := shootoutPolicies(o)
	if err != nil {
		return nil, err
	}
	// One PlatformMap per (scenario, severity), shared by every point of
	// that cell so the build cache can share the underlying clusters too.
	type pmKey struct {
		scenario string
		severity float64
	}
	pms := make(map[pmKey]*timing.PlatformMap)
	for _, scenario := range heteroScenarios {
		for _, k := range heteroSeverities {
			pms[pmKey{scenario, k}] = scenarioPlatforms(scenario, k)
		}
	}
	var points []heteroPoint
	for _, spec := range specs {
		for _, policy := range policies {
			points = append(points, heteroPoint{spec, policy, scenarioHomog, 1, nil})
			for _, scenario := range heteroScenarios {
				for _, k := range heteroSeverities {
					points = append(points, heteroPoint{spec, policy, scenario, k, pms[pmKey{scenario, k}]})
				}
			}
		}
	}
	bc := newBuildCache()
	rows, err := engine.Map(o.jobs(), len(points), func(i int) (HeteroRow, error) {
		return runHeteroPoint(points[i], o, bc)
	})
	if err != nil {
		return nil, err
	}
	// Normalize against the homogeneous anchor of each (model, policy).
	homog := make(map[string]float64)
	for _, r := range rows {
		if r.Scenario == scenarioHomog {
			homog[r.Model+"\x00"+r.Policy] = r.MeanIterSec
		}
	}
	for i := range rows {
		if base := homog[rows[i].Model+"\x00"+rows[i].Policy]; base > 0 {
			rows[i].NormVsHomog = rows[i].MeanIterSec / base
		}
	}
	// Robustness summary per (policy, scenario), across models × severities.
	var summary []HeteroSummary
	for _, policy := range policies {
		for _, scenario := range heteroScenarios {
			logSum, pctSum := 0.0, 0.0
			n := 0
			for _, r := range rows {
				if r.Policy != policy || r.Scenario != scenario || r.NormVsHomog <= 0 {
					continue
				}
				logSum += math.Log(r.NormVsHomog)
				pctSum += r.MaxStragglerPct
				n++
			}
			if n == 0 {
				continue
			}
			summary = append(summary, HeteroSummary{
				Policy:             policy,
				Scenario:           scenario,
				GeomeanNormVsHomog: math.Exp(logSum / float64(n)),
				MeanStragglerPct:   pctSum / float64(n),
			})
		}
	}
	return &HeteroResult{Rows: rows, Summary: summary}, nil
}

// WriteHetero renders the hetero sweep as a per-point table plus the
// policy-robustness summary.
func WriteHetero(w io.Writer, res *HeteroResult) {
	var cells [][]string
	for _, r := range res.Rows {
		cells = append(cells, []string{
			r.Model, r.Policy, r.Scenario, f1(r.Severity),
			f3(r.MeanIterSec), f1(r.MaxStragglerPct), f3(r.NormVsHomog),
		})
	}
	RenderTable(w, "Hetero: straggler/contention scenarios vs policy (training, 4W/1PS, envG; normalized to each pair's homogeneous baseline)",
		[]string{"Model", "Policy", "Scenario", "Slow×", "IterSec", "Straggler%", "NormIter"}, cells)
	var sum [][]string
	for _, s := range res.Summary {
		sum = append(sum, []string{s.Policy, s.Scenario, f3(s.GeomeanNormVsHomog), f1(s.MeanStragglerPct)})
	}
	RenderTable(w, "Hetero: policy robustness (geomean normalized iteration time across models × severities)",
		[]string{"Policy", "Scenario", "GeomeanNormIter", "MeanStraggler%"}, sum)
}
