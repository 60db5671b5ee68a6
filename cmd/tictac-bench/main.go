// Command tictac-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	tictac-bench                    # quick scale, every experiment
//	tictac-bench -full              # paper-scale protocol (slow)
//	tictac-bench -exp fig7,fig12    # a subset
//	tictac-bench -jobs 4            # bound the parallel experiment engine
//	tictac-bench -json out.json     # machine-readable rows + timings
//
// Experiments: table1, uniqueorders, fig7, fig8, fig9, fig10, fig11,
// fig12, fig13, allreduce, pipeline, shootout, cachepolicy, hetero, churn,
// ablations.
//
// Every experiment fans its independent points out across a worker pool
// (-jobs, default GOMAXPROCS); results are bit-identical at every pool
// width. Per-experiment wall-clock timings go to stderr.
package main

import "os"

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}
