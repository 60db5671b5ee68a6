// Command tictac-sim simulates synchronized Parameter-Server iterations of
// a model on a configurable cluster and reports iteration time, throughput,
// scheduling efficiency and straggler effect for the baseline and the
// chosen scheduling policy (any name registered in internal/sched).
//
// Usage:
//
//	tictac-sim -model "VGG-16" -mode training -workers 8 -ps 2 -env envG -policy tic
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tictac"
	"tictac/internal/model"
	"tictac/internal/timing"
	"tictac/internal/trace"
)

func main() {
	var (
		modelName = flag.String("model", "ResNet-50 v2", "Table 1 model name")
		mode      = flag.String("mode", "training", "training|inference")
		workers   = flag.Int("workers", 4, "number of workers")
		ps        = flag.Int("ps", 1, "number of parameter servers")
		env       = flag.String("env", "envG", "platform profile: envG|envC")
		policy    = flag.String("policy", "tic", "scheduling policy to compare against baseline: "+strings.Join(tictac.SchedulingPolicies(), "|"))
		batchX    = flag.Float64("batchx", 1, "batch-size factor (0.5, 1, 2, ...)")
		warmup    = flag.Int("warmup", 2, "warmup iterations to discard")
		measure   = flag.Int("measure", 10, "measured iterations")
		seed      = flag.Int64("seed", 1, "base random seed")
		traceOut  = flag.String("trace", "", "write a Chrome trace of one enforced iteration to this file")
	)
	flag.Parse()

	spec, ok := tictac.ModelByName(*modelName)
	if !ok {
		fatalf("unknown model %q", *modelName)
	}
	m, err := model.ParseMode(*mode)
	if err != nil {
		fatalf("%v", err)
	}
	platform, err := timing.EnvByName(*env)
	if err != nil {
		fatalf("%v", err)
	}
	c, err := tictac.BuildCluster(tictac.ClusterConfig{
		Model: spec, Mode: m, Workers: *workers, PS: *ps,
		BatchFactor: *batchX, Platform: platform,
	})
	if err != nil {
		fatalf("build: %v", err)
	}
	sched, err := c.ComputeSchedule(*policy, 5, *seed)
	if err != nil {
		fatalf("schedule: %v", err)
	}
	if sched == nil {
		fatalf("policy %q yields no schedule; pick one of %s", *policy, strings.Join(tictac.SchedulingPolicies(), ", "))
	}
	exp := tictac.Experiment{Warmup: *warmup, Measure: *measure}
	base, err := c.Run(exp, tictac.RunOptions{Seed: *seed, Jitter: -1})
	if err != nil {
		fatalf("baseline: %v", err)
	}
	enforced, err := c.Run(exp, tictac.RunOptions{Schedule: sched, Seed: *seed + 1000, Jitter: -1})
	if err != nil {
		fatalf("enforced: %v", err)
	}

	fmt.Printf("%s (%s)  workers=%d ps=%d batchx=%.2f env=%s\n",
		spec.Name, m, *workers, *ps, *batchX, platform.Name)
	fmt.Printf("%-14s %14s %14s %10s %12s %8s\n",
		"method", "iter time (s)", "samples/s", "E(mean)", "straggler%", "orders")
	printRow := func(name string, o *tictac.Outcome) {
		fmt.Printf("%-14s %14.4f %14.1f %10.3f %12.1f %8d\n",
			name, o.MeanMakespan, o.MeanThroughput, o.MeanEfficiency, o.MaxStragglerPct, o.UniqueRecvOrders)
	}
	printRow("baseline", base)
	printRow(*policy, enforced)
	fmt.Printf("throughput speedup: %.1f%%\n",
		(enforced.MeanThroughput-base.MeanThroughput)/base.MeanThroughput*100)

	if *traceOut != "" {
		res, err := tictac.Simulate(c.Graph, tictac.SimConfig{
			Oracle:   platform.Oracle(),
			Schedule: sched,
			Seed:     *seed,
			Jitter:   platform.Jitter,
		})
		if err != nil {
			fatalf("trace run: %v", err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("create %s: %v", *traceOut, err)
		}
		defer f.Close()
		if err := trace.WriteChrome(f, res); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing)\n", *traceOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tictac-sim: "+format+"\n", args...)
	os.Exit(1)
}
