// Package bench regenerates every table and figure of the paper's
// evaluation (§6 + appendix) on the simulated cluster and the real PS
// runtime. Each experiment returns typed rows plus a text rendering, so the
// same drivers serve the CLI (cmd/tictac-bench), the Go benchmarks
// (bench_test.go) and EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"tictac/internal/bench/engine"
	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/model"
)

// Options scales experiment cost. The zero value is upgraded to Full by
// each driver.
type Options struct {
	// Warmup iterations discarded per configuration (paper: 2).
	Warmup int
	// Measure iterations recorded per configuration (paper: 10).
	Measure int
	// Runs is the repeat count for the 1000-run experiments (Fig 12,
	// unique orders).
	Runs int
	// TrainIters is the SGD iteration count for Figure 8 (paper: 500).
	TrainIters int
	// Models restricts sweeps to the named models; nil uses each figure's
	// paper set.
	Models []string
	// Policies restricts the policy-shootout, hetero and churn experiments
	// to the named scheduling policies (see internal/sched); nil sweeps
	// each experiment's default set.
	Policies []string
	// Seed is the base RNG seed.
	Seed int64
	// Jobs bounds the experiment engine's worker pool. Zero means
	// engine.DefaultJobs() (GOMAXPROCS); 1 forces sequential execution.
	// Results are bit-identical for every value: each point derives its
	// randomness from Seed and its own index, never from execution order.
	Jobs int
}

// Full reproduces the paper's measurement protocol.
func Full() Options {
	return Options{Warmup: 2, Measure: 10, Runs: 1000, TrainIters: 500, Seed: 1}
}

// Quick is a cheap smoke-scale variant for tests and testing.B benchmarks.
func Quick() Options {
	return Options{Warmup: 1, Measure: 4, Runs: 40, TrainIters: 60, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := Full()
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Measure == 0 {
		o.Measure = d.Measure
	}
	if o.Runs == 0 {
		o.Runs = d.Runs
	}
	if o.TrainIters == 0 {
		o.TrainIters = d.TrainIters
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

func (o Options) experiment() cluster.Experiment {
	return cluster.Experiment{Warmup: o.Warmup, Measure: o.Measure}
}

// jobs resolves the engine pool width for this options value.
func (o Options) jobs() int {
	if o.Jobs <= 0 {
		return engine.DefaultJobs()
	}
	return o.Jobs
}

// sweepModels is the nine-model set of Figures 7, 9 and 10 (the paper's
// sweep plots omit ResNet-101 v2).
func sweepModels(o Options) []model.Spec {
	names := o.Models
	if names == nil {
		names = []string{
			"Inception v1", "VGG-19", "Inception v2", "AlexNet v2", "VGG-16",
			"ResNet-50 v1", "ResNet-50 v2", "Inception v3", "ResNet-101 v1",
		}
	}
	var specs []model.Spec
	for _, n := range names {
		if s, ok := model.ByName(n); ok {
			specs = append(specs, s)
		}
	}
	return specs
}

// runPair measures a configuration under the baseline and under the named
// scheduling policy, returning both outcomes and the computed schedule.
// bc memoizes the cluster and schedule across points sharing the topology.
func runPair(cfg cluster.Config, policy string, o Options, bc *buildCache) (base, enforced *cluster.Outcome, sched *core.Schedule, err error) {
	c, sched, err := bc.schedule(cfg, policy, 5, o.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	base, err = c.Run(o.experiment(), cluster.RunOptions{Seed: o.Seed, Jitter: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	enforced, err = c.Run(o.experiment(), cluster.RunOptions{Schedule: sched, Seed: o.Seed + 1000003, Jitter: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	return base, enforced, sched, nil
}

// speedupPct converts a baseline/enforced throughput pair into the paper's
// "Throughput Speed Up (%)" measure.
func speedupPct(base, enforced float64) float64 {
	if base <= 0 {
		return 0
	}
	return (enforced - base) / base * 100
}

// RenderTable writes an aligned text table.
func RenderTable(w io.Writer, title string, headers []string, rows [][]string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(headers, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
