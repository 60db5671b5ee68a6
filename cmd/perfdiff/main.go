// Command perfdiff compares a fresh BENCH_sim.json against a committed
// baseline and fails on perf regressions. The nightly perf workflow runs
// `make perf`, then this tool with the repo's committed BENCH_sim.json as
// the baseline (see .github/workflows/perf.yml).
//
// Rows are matched by (benchmark, model, variant). Each row has one primary
// metric: a throughput-style custom metric when the row reports one
// ("variants/sec", "hits/req", ... — higher is better), ns/op otherwise
// (lower is better). A primary metric more than -threshold worse than the
// baseline is a regression; a baseline row missing from the current run is
// always a failure (a renamed or deleted benchmark must move the baseline
// deliberately, not silently drop out of the gate). New rows in the current
// run are reported but never fail — landing a benchmark precedes landing
// its baseline.
//
// Before any row is judged, the frozen reference rows check the machine
// (see machineRatio). When they say the current run's machine is not the
// baseline's, perfdiff prints one MACHINE verdict instead of a verdict per
// row and exits with code 3. Exit codes: 0 pass, 1 regression or missing
// row, 2 bad flags or input, 3 machine differs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// exitMachine is the exit code of a run whose reference rows say the
// machine differs from the baseline's.
const exitMachine = 3

// referenceKey names the frozen reference rows in reports.
const referenceKey = "BenchmarkSimRun/*/reference"

// Row mirrors cmd/benchjson's output row (the BENCH_sim.json schema).
type Row struct {
	Benchmark   string             `json:"benchmark"`
	Model       string             `json:"model,omitempty"`
	Variant     string             `json:"variant,omitempty"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func (r Row) key() string {
	return r.Benchmark + "/" + r.Model + "/" + r.Variant
}

// primaryMetric picks the one number the gate judges a row by. Custom
// throughput metrics win over ns/op: for rows that report one (batch
// variants/sec, cache hits/req) the wall time per b.N iteration is an
// artifact of the harness, not the quantity under test.
func primaryMetric(r Row) (name string, value float64, higherBetter bool) {
	units := make([]string, 0, len(r.Extra))
	for unit := range r.Extra {
		units = append(units, unit)
	}
	sort.Strings(units)
	for _, unit := range units {
		if strings.Contains(unit, "/sec") || strings.Contains(unit, "/s") || unit == "hits/req" {
			return unit, r.Extra[unit], true
		}
	}
	return "ns/op", r.NsPerOp, false
}

// diffLine is one row's verdict in the report.
type diffLine struct {
	Key      string  `json:"key"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Change is the signed regression fraction: positive = worse than
	// baseline, regardless of the metric's direction.
	Change  float64 `json:"change"`
	Verdict string  `json:"verdict"` // "ok" | "regression" | "missing" | "new" | "machine"
}

// machineRatio returns the median, over the BenchmarkSimRun reference rows
// present in both files, of current ns/op divided by baseline ns/op. Those
// rows time simref, the frozen copy of the simulator that no change edits,
// so only the machine moves them: a ratio far from 1 means every other
// row's change would measure the machine, not the code. ok is false when
// no reference row is in both files.
func machineRatio(baseline, current []Row) (ratio float64, ok bool) {
	cur := make(map[string]Row, len(current))
	for _, r := range current {
		cur[r.key()] = r
	}
	var ratios []float64
	for _, b := range baseline {
		if b.Benchmark != "BenchmarkSimRun" || b.Variant != "reference" || b.NsPerOp <= 0 {
			continue
		}
		if c, found := cur[b.key()]; found && c.NsPerOp > 0 {
			ratios = append(ratios, c.NsPerOp/b.NsPerOp)
		}
	}
	n := len(ratios)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(ratios)
	if n%2 == 1 {
		return ratios[n/2], true
	}
	return (ratios[n/2-1] + ratios[n/2]) / 2, true
}

// compare matches current rows against the baseline and returns per-row
// verdicts plus whether the gate fails.
func compare(baseline, current []Row, threshold float64) (lines []diffLine, failed bool) {
	cur := make(map[string]Row, len(current))
	for _, r := range current {
		cur[r.key()] = r
	}
	seen := make(map[string]bool, len(baseline))
	for _, b := range baseline {
		seen[b.key()] = true
		metric, base, higherBetter := primaryMetric(b)
		line := diffLine{Key: b.key(), Metric: metric, Baseline: base}
		c, ok := cur[b.key()]
		if !ok {
			line.Verdict = "missing"
			failed = true
			lines = append(lines, line)
			continue
		}
		_, got, _ := primaryMetric(c)
		line.Current = got
		if base != 0 {
			if higherBetter {
				line.Change = (base - got) / base
			} else {
				line.Change = (got - base) / base
			}
		}
		line.Verdict = "ok"
		if line.Change > threshold {
			line.Verdict = "regression"
			failed = true
		}
		lines = append(lines, line)
	}
	for _, r := range current {
		if !seen[r.key()] {
			metric, got, _ := primaryMetric(r)
			lines = append(lines, diffLine{Key: r.key(), Metric: metric, Current: got, Verdict: "new"})
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Key < lines[j].Key })
	return lines, failed
}

func readRows(path string) ([]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows", path)
	}
	return rows, nil
}

func report(w io.Writer, lines []diffLine, threshold float64) {
	for _, l := range lines {
		switch l.Verdict {
		case "missing":
			fmt.Fprintf(w, "MISSING  %-55s %s (baseline %.4g, no current row)\n", l.Key, l.Metric, l.Baseline)
		case "new":
			fmt.Fprintf(w, "NEW      %-55s %s = %.4g (no baseline)\n", l.Key, l.Metric, l.Current)
		case "machine":
			fmt.Fprintf(w, "MACHINE  %-55s ran %.2f× the baseline's time (threshold %.0f%%): the machine differs, no row judged\n",
				l.Key, l.Current, 100*threshold)
		case "regression":
			fmt.Fprintf(w, "REGRESS  %-55s %s %.4g -> %.4g (%+.1f%% worse, threshold %.0f%%)\n",
				l.Key, l.Metric, l.Baseline, l.Current, 100*l.Change, 100*threshold)
		default:
			fmt.Fprintf(w, "ok       %-55s %s %.4g -> %.4g (%+.1f%%)\n",
				l.Key, l.Metric, l.Baseline, l.Current, 100*l.Change)
		}
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "committed BENCH_sim.json to diff against (required)")
	currentPath := fs.String("current", "", "freshly measured BENCH_sim.json (required)")
	threshold := fs.Float64("threshold", 0.15, "max tolerated regression in any row's primary metric (fraction)")
	jsonOut := fs.String("json", "", "also write the per-row verdicts as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(stderr, "perfdiff: -baseline and -current are required")
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintln(stderr, "perfdiff: -threshold must be > 0")
		return 2
	}
	baseline, err := readRows(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: %v\n", err)
		return 2
	}
	current, err := readRows(*currentPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfdiff: %v\n", err)
		return 2
	}
	if ratio, ok := machineRatio(baseline, current); ok && math.Abs(ratio-1) > *threshold {
		lines := []diffLine{{Key: referenceKey, Metric: "ns/op ratio", Baseline: 1, Current: ratio, Change: ratio - 1, Verdict: "machine"}}
		report(stdout, lines, *threshold)
		if err := writeLines(*jsonOut, lines); err != nil {
			fmt.Fprintf(stderr, "perfdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "perfdiff: FAIL: machine differs: reference rows ran %.2f× %s's time\n", ratio, *baselinePath)
		return exitMachine
	}
	lines, failed := compare(baseline, current, *threshold)
	report(stdout, lines, *threshold)
	if err := writeLines(*jsonOut, lines); err != nil {
		fmt.Fprintf(stderr, "perfdiff: %v\n", err)
		return 2
	}
	if failed {
		fmt.Fprintf(stderr, "perfdiff: FAIL: regression or missing row vs %s\n", *baselinePath)
		return 1
	}
	fmt.Fprintf(stderr, "perfdiff: PASS: %d rows within %.0f%% of baseline\n", len(lines), 100**threshold)
	return 0
}

// writeLines writes the verdicts as JSON to path; an empty path writes
// nothing.
func writeLines(path string, lines []diffLine) error {
	if path == "" {
		return nil
	}
	payload, err := json.MarshalIndent(lines, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(payload, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
