// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a machine-readable JSON array. `make perf` pipes the simulator and
// cluster microbenchmarks through it to produce BENCH_sim.json — the
// per-model ns/op + allocs/op record that tracks the perf trajectory across
// PRs (see docs/performance.md).
//
// Benchmark names of the form BenchmarkX/Model/variant-P are split into
// benchmark, model (underscores restored to spaces) and variant. Each row
// also records the machine shape it was measured on: the -P GOMAXPROCS
// suffix as procs, the `cpu:` header line go test prints per package as
// cpu, and the Go version as go. go test prints no version, so benchjson
// records its own runtime.Version(): `make perf` runs it with the same
// toolchain as the benchmarks. None of these is part of a row's identity
// (cmd/perfdiff matches rows on benchmark/model/variant).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Row is one parsed benchmark result line. Custom metrics emitted via
// b.ReportMetric (e.g. "variants/sec") land in Extra keyed by their unit.
type Row struct {
	Benchmark   string             `json:"benchmark"`
	Model       string             `json:"model,omitempty"`
	Variant     string             `json:"variant,omitempty"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	// CPU is the model name from the `cpu:` header preceding the row.
	CPU string `json:"cpu,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran at (its -P name suffix).
	Procs int `json:"procs,omitempty"`
	// Go is the Go version the rows were converted with.
	Go string `json:"go,omitempty"`
}

// parseLine parses one `go test -bench` result line, reporting ok=false for
// non-benchmark lines (headers, PASS/ok trailers).
func parseLine(line string) (Row, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Row{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Row{}, false
	}
	row := Row{Iters: iters}

	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			name, row.Procs = name[:i], procs
		}
	}
	parts := strings.Split(name, "/")
	row.Benchmark = parts[0]
	if len(parts) > 1 {
		row.Model = strings.ReplaceAll(parts[1], "_", " ")
	}
	if len(parts) > 2 {
		row.Variant = strings.Join(parts[2:], "/")
	}

	seenNs := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			row.NsPerOp = v
			seenNs = true
		case "B/op":
			row.BytesPerOp = int64(v)
		case "allocs/op":
			row.AllocsPerOp = int64(v)
		default:
			// b.ReportMetric units all contain a slash (variants/sec,
			// MB/s, ...); anything else is a stray number, not a metric.
			if strings.Contains(fields[i+1], "/") {
				if row.Extra == nil {
					row.Extra = map[string]float64{}
				}
				row.Extra[fields[i+1]] = v
			}
		}
	}
	return row, seenNs
}

// convert reads benchmark output from r and writes the JSON array to w. An
// input with no benchmark result lines is an error: a silently empty
// artifact would turn a renamed benchmark or a bad -bench regex into a
// green CI run with no perf data.
func convert(r io.Reader, w io.Writer) error {
	rows := []Row{}
	cpu := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		if row, ok := parseLine(line); ok {
			row.CPU = cpu
			row.Go = runtime.Version()
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

func main() {
	out := flag.String("o", "-", "output file ('-' = stdout)")
	flag.Parse()
	var buf bytes.Buffer
	if err := convert(os.Stdin, &buf); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *out == "-" {
		if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	// WriteFile closes with error propagation, so a failed flush cannot
	// leave a truncated artifact behind a zero exit.
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
