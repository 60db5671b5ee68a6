// Command tictac runs the ordering wizard: it builds a model's worker DAG,
// computes a transfer schedule under any registered scheduling policy
// (tic, tac, random, fifo, revtopo, smallest-first, critical-path, ...) and
// prints the priority list.
//
// Usage:
//
//	tictac -model "ResNet-50 v2" -mode training -policy tac -env envG [-top 20]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tictac"
	"tictac/internal/model"
	"tictac/internal/timing"
)

func main() {
	var (
		modelName = flag.String("model", "ResNet-50 v2", "Table 1 model name (see -list)")
		mode      = flag.String("mode", "training", "worker graph mode: training|inference")
		policy    = flag.String("policy", "tic", "scheduling policy: "+strings.Join(tictac.SchedulingPolicies(), "|"))
		env       = flag.String("env", "envG", "platform profile for timing-aware policies: envG|envC")
		seed      = flag.Int64("seed", 1, "seed for stochastic policies (random)")
		top       = flag.Int("top", 0, "print only the first N transfers (0 = all)")
		list      = flag.Bool("list", false, "list available models and exit")
		outFile   = flag.String("o", "", "write the schedule as JSON to this file")
		dotFile   = flag.String("dot", "", "write the worker DAG in Graphviz DOT format to this file")
		jsonFile  = flag.String("graph-json", "", "write the worker DAG as JSON to this file")
	)
	flag.Parse()

	if *list {
		for _, s := range tictac.Models() {
			fmt.Printf("%-14s  #par=%-3d  %8.2f MiB  ops=%d/%d  batch=%d\n",
				s.Name, s.Params, s.ParamMiB, s.OpsInference, s.OpsTraining, s.Batch)
		}
		return
	}

	spec, ok := tictac.ModelByName(*modelName)
	if !ok {
		fatalf("unknown model %q (use -list)", *modelName)
	}
	m, err := model.ParseMode(*mode)
	if err != nil {
		fatalf("%v", err)
	}
	platform, err := timing.EnvByName(*env)
	if err != nil {
		fatalf("%v", err)
	}
	g, err := tictac.BuildWorkerGraph(spec, m, spec.Batch, "worker:0")
	if err != nil {
		fatalf("build: %v", err)
	}

	p, err := tictac.NewPolicy(*policy, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	sched, err := p.Order(g, &platform)
	if err != nil {
		fatalf("schedule: %v", err)
	}

	oracle := platform.Oracle()
	upper, lower := tictac.Bounds(g, oracle)
	fmt.Printf("model: %s (%s), %d ops, %d transfers\n", spec.Name, m, g.Len(), len(sched.Order))
	fmt.Printf("theoretical speedup S = %.3f (UMakespan %.4fs, LMakespan %.4fs)\n",
		tictac.Speedup(g, oracle), upper, lower)
	fmt.Printf("%s priority order:\n", strings.ToUpper(*policy))
	n := len(sched.Order)
	if *top > 0 && *top < n {
		n = *top
	}
	for i := 0; i < n; i++ {
		fmt.Printf("  %3d  %s\n", i, sched.Order[i])
	}
	if n < len(sched.Order) {
		fmt.Printf("  ... %d more\n", len(sched.Order)-n)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatalf("create %s: %v", *outFile, err)
		}
		defer f.Close()
		if err := sched.WriteJSON(f); err != nil {
			fatalf("write schedule: %v", err)
		}
		fmt.Printf("schedule written to %s\n", *outFile)
	}
	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(tictac.GraphDOT(g, spec.Name)), 0o644); err != nil {
			fatalf("write dot: %v", err)
		}
		fmt.Printf("DOT graph written to %s\n", *dotFile)
	}
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			fatalf("create %s: %v", *jsonFile, err)
		}
		defer f.Close()
		if err := g.WriteJSON(f); err != nil {
			fatalf("write graph json: %v", err)
		}
		fmt.Printf("graph JSON written to %s\n", *jsonFile)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tictac: "+format+"\n", args...)
	os.Exit(1)
}
