package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tictac/internal/bench"
	"tictac/internal/bench/engine"
)

// appConfig is the parsed CLI configuration.
type appConfig struct {
	experiments []bench.Experiment
	opts        bench.Options
	jsonPath    string
	cpuProfile  string
	memProfile  string
}

// parseArgs parses the CLI flags into an appConfig. It is separated from
// runApp so flag handling (experiment subsets, unknown names, -jobs, -json)
// is unit-testable without running any experiment.
func parseArgs(args []string, stderr io.Writer) (*appConfig, error) {
	fs := flag.NewFlagSet("tictac-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expList    = fs.String("exp", "all", "comma-separated experiments or 'all'")
		full       = fs.Bool("full", false, "paper-scale protocol (10 measured iterations, 1000 runs, 500 training iters)")
		seed       = fs.Int64("seed", 1, "base random seed")
		jobs       = fs.Int("jobs", 0, "experiment engine worker-pool width (0 = GOMAXPROCS, 1 = sequential)")
		jsonPath   = fs.String("json", "", "write machine-readable results to this file ('-' = stdout)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (post-GC) to this file when the run completes")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *jobs < 0 {
		return nil, fmt.Errorf("-jobs must be >= 0, got %d", *jobs)
	}
	exps, err := bench.SelectExperiments(*expList)
	if err != nil {
		return nil, err
	}
	opts := bench.Quick()
	if *full {
		opts = bench.Full()
	}
	opts.Seed = *seed
	opts.Jobs = *jobs
	return &appConfig{
		experiments: exps,
		opts:        opts,
		jsonPath:    *jsonPath,
		cpuProfile:  *cpuProfile,
		memProfile:  *memProfile,
	}, nil
}

// withProfiles brackets fn with the requested pprof collection: CPU
// sampling for the duration of fn, and a post-GC heap snapshot after it.
// Profiles cover exactly the experiment work, so perf PRs can attach
// before/after pprof evidence straight from the CLI.
func withProfiles(cfg *appConfig, fn func() error) error {
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	runErr := fn()
	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return errors.Join(runErr, fmt.Errorf("-memprofile: %w", err))
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			return errors.Join(runErr, fmt.Errorf("-memprofile: %w", err))
		}
	}
	return runErr
}

// jsonReport is the machine-readable record of one experiment run. Error is
// set instead of Rows when the experiment failed.
type jsonReport struct {
	Experiment string  `json:"experiment"`
	Seconds    float64 `json:"seconds"`
	Rows       any     `json:"rows,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// runApp executes the selected experiments, writing text tables to stdout,
// per-experiment wall-clock lines to stderr, and (optionally) a JSON report.
// With -json - the JSON report owns stdout: text tables are suppressed so
// the stream stays machine-parseable.
func runApp(cfg *appConfig, stdout, stderr io.Writer) error {
	textOut := stdout
	if cfg.jsonPath == "-" {
		textOut = io.Discard
	}
	var reports []jsonReport
	var runErr error
	total := time.Duration(0)
	for _, exp := range cfg.experiments {
		start := time.Now()
		rows, err := exp.Run(cfg.opts, textOut)
		elapsed := time.Since(start)
		total += elapsed
		if err != nil {
			// Record the failure and stop, but still write the report below
			// so the completed experiments' rows survive a late failure.
			runErr = fmt.Errorf("%s: %w", exp.Name, err)
			reports = append(reports, jsonReport{Experiment: exp.Name, Seconds: elapsed.Seconds(), Error: err.Error()})
			break
		}
		fmt.Fprintf(stderr, "tictac-bench: %-12s %8.2fs\n", exp.Name, elapsed.Seconds())
		reports = append(reports, jsonReport{Experiment: exp.Name, Seconds: elapsed.Seconds(), Rows: rows})
	}
	jobs := cfg.opts.Jobs
	if jobs <= 0 {
		jobs = engine.DefaultJobs()
	}
	fmt.Fprintf(stderr, "tictac-bench: %-12s %8.2fs (jobs=%d)\n", "total", total.Seconds(), jobs)
	if cfg.jsonPath == "" {
		return runErr
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return errors.Join(runErr, err)
	}
	data = append(data, '\n')
	if cfg.jsonPath == "-" {
		if _, err := stdout.Write(data); err != nil {
			return errors.Join(runErr, err)
		}
		return runErr
	}
	if err := os.WriteFile(cfg.jsonPath, data, 0o644); err != nil {
		return errors.Join(runErr, err)
	}
	return runErr
}

// appMain is the testable entry point: parse, run, map errors to exit codes.
func appMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0 // -h/-help is a successful usage request, as before the refactor
		}
		fmt.Fprintf(stderr, "tictac-bench: %v\n", err)
		return 2
	}
	if err := withProfiles(cfg, func() error { return runApp(cfg, stdout, stderr) }); err != nil {
		fmt.Fprintf(stderr, "tictac-bench: %v\n", err)
		return 1
	}
	return 0
}
