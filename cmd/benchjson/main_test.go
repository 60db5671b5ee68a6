package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: tictac/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimRun/AlexNet_v2/reference-4         	      20	    575707 ns/op	  221024 B/op	     245 allocs/op
BenchmarkSimRun/AlexNet_v2/runner-4            	      20	    198690 ns/op	   52247 B/op	       9 allocs/op
BenchmarkClusterRun/Inception_v2-4             	      10	   25000000 ns/op	 1000000 B/op	     500 allocs/op
PASS
ok  	tictac/internal/sim	0.481s
`

func TestParseLine(t *testing.T) {
	row, ok := parseLine("BenchmarkSimRun/AlexNet_v2/runner-4 \t 20 \t 198690 ns/op \t 52247 B/op \t 9 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if row.Benchmark != "BenchmarkSimRun" || row.Model != "AlexNet v2" || row.Variant != "runner" {
		t.Fatalf("name split = %+v", row)
	}
	if row.Iters != 20 || row.NsPerOp != 198690 || row.BytesPerOp != 52247 || row.AllocsPerOp != 9 {
		t.Fatalf("metrics = %+v", row)
	}
	if row.Procs != 4 {
		t.Fatalf("procs = %d, want the -4 suffix", row.Procs)
	}
	// A benchmark without sub-names keeps only the benchmark field.
	row, ok = parseLine("BenchmarkFoo   100   123.5 ns/op")
	if !ok || row.Benchmark != "BenchmarkFoo" || row.Procs != 0 {
		t.Fatalf("benchmark without a -P suffix = %+v, ok=%v", row, ok)
	}
	row, ok = parseLine("BenchmarkFoo-8   100   123.5 ns/op")
	if !ok || row.Benchmark != "BenchmarkFoo" || row.Model != "" || row.NsPerOp != 123.5 || row.Procs != 8 {
		t.Fatalf("plain benchmark = %+v, ok=%v", row, ok)
	}
	if row.Extra != nil {
		t.Fatalf("unexpected extra metrics: %v", row.Extra)
	}
	// Custom metrics from b.ReportMetric land in Extra keyed by unit.
	row, ok = parseLine("BenchmarkBatchThroughput/AlexNet_v2/jobsN-4  50  2000000 ns/op  11520 variants/sec  1024 B/op  12 allocs/op")
	if !ok || row.NsPerOp != 2000000 || row.BytesPerOp != 1024 {
		t.Fatalf("metric line = %+v, ok=%v", row, ok)
	}
	if row.Extra["variants/sec"] != 11520 {
		t.Fatalf("extra = %v, want variants/sec=11520", row.Extra)
	}
	// Cache-replay benchmarks report hit rate via ReportMetric; the
	// policy name occupies the model slot of the benchmark path.
	row, ok = parseLine("BenchmarkCacheReplay/lru-8  100  12345 ns/op  0.635 hits/req  512 B/op  3 allocs/op")
	if !ok || row.Benchmark != "BenchmarkCacheReplay" || row.Model != "lru" {
		t.Fatalf("cache replay line = %+v, ok=%v", row, ok)
	}
	if row.Extra["hits/req"] != 0.635 {
		t.Fatalf("extra = %v, want hits/req=0.635", row.Extra)
	}
	for _, line := range []string{"PASS", "ok  \ttictac\t0.1s", "pkg: tictac", "", "Benchmark (no result)"} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("non-result line parsed as benchmark: %q", line)
		}
	}
}

func TestConvert(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(sampleBenchOutput), &out); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Variant != "reference" || rows[1].Variant != "runner" {
		t.Fatalf("variants = %q, %q", rows[0].Variant, rows[1].Variant)
	}
	if rows[2].Benchmark != "BenchmarkClusterRun" || rows[2].Model != "Inception v2" || rows[2].Variant != "" {
		t.Fatalf("cluster row = %+v", rows[2])
	}
}

// TestConvertRecordsMachineShape: every row carries the cpu header of its
// package block, its own GOMAXPROCS and the Go version (which go test does
// not print: benchjson's own toolchain), while the name fields that
// cmd/perfdiff matches rows on stay exactly as before.
func TestConvertRecordsMachineShape(t *testing.T) {
	input := sampleBenchOutput + `goos: linux
pkg: tictac/internal/service
cpu: AMD EPYC 7B13
BenchmarkBatchThroughput/AlexNet_v2/jobsN-16  	 50	 2000000 ns/op	 11520 variants/sec
`
	var out bytes.Buffer
	if err := convert(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rows []Row
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Go != runtime.Version() {
			t.Fatalf("row %s/%s go = %q, want %q", r.Benchmark, r.Model, r.Go, runtime.Version())
		}
	}
	for _, r := range rows[:3] {
		if r.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || r.Procs != 4 {
			t.Fatalf("sim row machine shape = %q/%d", r.CPU, r.Procs)
		}
	}
	last := rows[3]
	if last.CPU != "AMD EPYC 7B13" || last.Procs != 16 {
		t.Fatalf("service row machine shape = %q/%d", last.CPU, last.Procs)
	}
	if last.Benchmark != "BenchmarkBatchThroughput" || last.Model != "AlexNet v2" || last.Variant != "jobsN" {
		t.Fatalf("name split changed: %+v", last)
	}
	if !strings.Contains(out.String(), `"procs": 16`) || !strings.Contains(out.String(), `"cpu": "AMD EPYC 7B13"`) ||
		!strings.Contains(out.String(), `"go": "`+runtime.Version()+`"`) {
		t.Fatalf("machine shape missing from JSON:\n%s", out.String())
	}
}

// TestConvertEmptyInputFails: zero parsed rows must be an error, so a
// renamed benchmark or a bad -bench regex fails `make perf` loudly instead
// of uploading an empty artifact.
func TestConvertEmptyInputFails(t *testing.T) {
	var out bytes.Buffer
	err := convert(strings.NewReader("no benchmarks here\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "no benchmark result lines") {
		t.Fatalf("err = %v, want no-results error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("output written despite error: %q", out.String())
	}
}
