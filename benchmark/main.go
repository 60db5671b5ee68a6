// Command benchmark measures tictacd end to end, and layer by layer when
// traced. It builds cmd/tictacd from the checkout it runs in, runs the
// daemon as separate processes on loopback with default flags, drives them
// from closed-loop clients with seeded workloads, checks every response,
// and prints one JSON result as its last line of output.
//
// Run it from the repository root, which it builds from:
//
//	bash benchmark/run.sh --workload schedule-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run, whose spans are
// written under .bench_build/trace. See benchmark/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	seed    int64
	seconds int
	trace   bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's requests are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured (or traced) phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	names := workloadNames
	if *name != "all" {
		if !slices.Contains(workloadNames, *name) {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		names = []string{*name}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildDaemon()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	meta := runMeta(o, names)
	line, _ := json.Marshal(meta) // a map of strings and numbers always marshals
	fmt.Fprintf(stdout, "meta %s\n", line)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		w, err := newWorkload(n, o.seed)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		res, err := measureWorkload(ctx, bin, w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		if len(names) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "result %s %s\n", n, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[n+"/"+k] = v
		}
	}
	line, _ = json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		fmt.Fprintf(stderr, "benchmark: FAIL: %d of %d operations failed\n", total.Failed, total.Attempted)
		return 1
	}
	return 0
}

// runMeta describes the machine and inputs of a run, so that a result from
// a one-CPU machine is never mistaken for a regression.
func runMeta(o options, names []string) map[string]any {
	// Only a checkout with its own .git names a commit; git would otherwise
	// search the parent directories.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	goVersion := runtime.Version()
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		goVersion = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"clients":    clientCount(),
		"cpu":        procField("/proc/cpuinfo", "model name"),
		"kernel":     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"go":         goVersion,
		"commit":     commit,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"workloads":  names,
	}
}

// procField returns the value of the first "key : value" line of a procfs
// file, or "unknown".
func procField(path, key string) string {
	for _, line := range strings.Split(readFile(path), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}
