// Command tictac-load drives tictacd with a workload and checks every
// response byte for byte against a fresh in-process service answering the
// same request (internal/loadgen).
//
// With no -trace it sends the built-in mix: -requests schedule requests
// over six configs in a closed loop, with /v1/batch, membership-churn and
// error-envelope probes riding along. With -trace it replays a workload
// trace (docs/cache-policies.md), paced by -timescale.
//
//	tictac-load                                        # self-hosted lru × 256 server
//	tictac-load -targets http://127.0.0.1:8080 -requests 500 -report load.json
//	tictac-load -targets http://n1:8080,http://n2:8080 # a fleet: round-robin with failover
//	tictac-load -trace t.trace.json -evict lru,lfu -sizes 8,16
//
// The JSON report goes to stdout (and -report). The exit code is 0 when the
// run upheld the service contract, 1 when it did not or could not run, and
// 2 on a flag error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tictac/internal/cache"
	"tictac/internal/loadgen"
	"tictac/internal/service"
	"tictac/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tictac-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targets := fs.String("targets", "", "comma-separated base URLs of running tictacd nodes (empty = self-host one server per -evict × -sizes point)")
	tracePath := fs.String("trace", "", "replay this workload trace file instead of the built-in mix")
	requests := fs.Int("requests", 200, "built-in mix: schedule requests")
	seed := fs.Int64("seed", 1, "built-in mix: request seed")
	concurrency := fs.Int("concurrency", 16, "concurrent client workers")
	timescale := fs.Float64("timescale", 0, "wall-clock seconds per trace second (0 = closed loop)")
	evict := fs.String("evict", cache.LRU, "comma-separated eviction policies for self-hosted servers and the offline section")
	sizes := fs.String("sizes", strconv.Itoa(service.DefaultCacheCapacity), "comma-separated schedule-cache capacities for self-hosted servers and the offline section")
	reportPath := fs.String("report", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	opts := loadgen.Options{
		Targets:     splitList(*targets),
		Concurrency: *concurrency,
		Timescale:   *timescale,
		Policies:    splitList(*evict),
	}
	for _, p := range opts.Policies {
		if _, err := cache.NewPolicy(p); err != nil {
			fmt.Fprintf(stderr, "tictac-load: -evict: %v\n", err)
			return 2
		}
	}
	for _, s := range splitList(*sizes) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			fmt.Fprintf(stderr, "tictac-load: -sizes: bad size %q (want positive integers)\n", s)
			return 2
		}
		opts.CacheSizes = append(opts.CacheSizes, n)
	}

	if *tracePath == "" {
		opts.Trace, opts.Probes = loadgen.Mix(*requests, *seed), true
	} else {
		w, err := trace.ReadWorkloadFile(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "tictac-load: %v\n", err)
			return 1
		}
		opts.Trace = w
	}
	report, err := loadgen.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "tictac-load: %v\n", err)
		return 1
	}
	// The report is written before the verdict: failing runs are exactly
	// the ones whose report matters.
	payload, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "tictac-load: %v\n", err)
		return 1
	}
	payload = append(payload, '\n')
	stdout.Write(payload)
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, payload, 0o644); err != nil {
			fmt.Fprintf(stderr, "tictac-load: write report: %v\n", err)
			return 1
		}
	}
	if err := report.Err(); err != nil {
		fmt.Fprintf(stderr, "tictac-load: FAIL: %v\n", err)
		return 1
	}
	c := report.Curves[0]
	fmt.Fprintf(stderr, "tictac-load: PASS: %q, %d events over %d keys, %d curve(s); first: hit rate %.3f, p99 %.1fms\n",
		report.Trace, report.Events, report.DistinctKeys, len(report.Curves), c.Server.HitRate, c.Latency.P99*1000)
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
