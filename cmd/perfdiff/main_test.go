package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func row(bench, model, variant string, ns float64, extra map[string]float64) Row {
	return Row{Benchmark: bench, Model: model, Variant: variant, Iters: 50, NsPerOp: ns, Extra: extra}
}

func TestPrimaryMetricPrefersThroughput(t *testing.T) {
	name, v, higher := primaryMetric(row("B", "m", "", 100, map[string]float64{"variants/sec": 1200}))
	if name != "variants/sec" || v != 1200 || !higher {
		t.Fatalf("got %q %v higher=%v", name, v, higher)
	}
	name, v, higher = primaryMetric(row("B", "m", "", 100, map[string]float64{"hits/req": 0.7}))
	if name != "hits/req" || v != 0.7 || !higher {
		t.Fatalf("got %q %v higher=%v", name, v, higher)
	}
	name, v, higher = primaryMetric(row("B", "m", "", 100, nil))
	if name != "ns/op" || v != 100 || higher {
		t.Fatalf("got %q %v higher=%v", name, v, higher)
	}
}

// TestPrimaryMetricIgnoresSizeMetrics: a build row that also reports the
// heap its result retains is still judged by ns/op. A size per op is
// neither a throughput nor a hit rate, and a larger one is worse.
func TestPrimaryMetricIgnoresSizeMetrics(t *testing.T) {
	r := row("BenchmarkClusterBuild", "ResNet-101 v2", "build", 15e6, map[string]float64{"retained-B/op": 229.2})
	name, v, higher := primaryMetric(r)
	if name != "ns/op" || v != 15e6 || higher {
		t.Fatalf("got %q %v higher=%v, want ns/op 1.5e+07 lower-is-better", name, v, higher)
	}
	slower := row("BenchmarkClusterBuild", "ResNet-101 v2", "build", 18e6, map[string]float64{"retained-B/op": 229.2})
	if _, failed := compare([]Row{r}, []Row{slower}, 0.15); !failed {
		t.Fatal("a 20% slower build with unchanged retained bytes passed the gate")
	}
}

func TestCompareVerdicts(t *testing.T) {
	baseline := []Row{
		row("BenchmarkSimRun", "AlexNet v2", "runner", 1000, nil),
		row("BenchmarkBatchThroughput", "AlexNet v2", "jobsN", 5000, map[string]float64{"variants/sec": 1000}),
		row("BenchmarkGone", "x", "", 10, nil),
	}
	current := []Row{
		// 20% slower ns/op: regression at a 15% threshold.
		row("BenchmarkSimRun", "AlexNet v2", "runner", 1200, nil),
		// Throughput up: fine even though ns/op would look "worse" if
		// judged, because the harness burns wall time differently.
		row("BenchmarkBatchThroughput", "AlexNet v2", "jobsN", 9000, map[string]float64{"variants/sec": 1100}),
		row("BenchmarkNew", "y", "", 5, nil),
	}
	lines, failed := compare(baseline, current, 0.15)
	if !failed {
		t.Fatal("20% ns/op regression + missing row did not fail")
	}
	verdicts := map[string]string{}
	for _, l := range lines {
		verdicts[l.Key] = l.Verdict
	}
	want := map[string]string{
		"BenchmarkSimRun/AlexNet v2/runner":         "regression",
		"BenchmarkBatchThroughput/AlexNet v2/jobsN": "ok",
		"BenchmarkGone/x/":                          "missing",
		"BenchmarkNew/y/":                           "new",
	}
	for k, v := range want {
		if verdicts[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, verdicts[k], v)
		}
	}
}

func TestCompareThroughputRegression(t *testing.T) {
	baseline := []Row{row("B", "m", "", 100, map[string]float64{"hits/req": 1.0})}
	current := []Row{row("B", "m", "", 100, map[string]float64{"hits/req": 0.8})}
	if _, failed := compare(baseline, current, 0.15); !failed {
		t.Fatal("20% hits/req drop did not fail")
	}
	current[0].Extra["hits/req"] = 0.9
	if _, failed := compare(baseline, current, 0.15); failed {
		t.Fatal("10% hits/req drop failed at a 15% threshold")
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	baseline := []Row{row("B", "m", "v", 1000, nil)}
	current := []Row{row("B", "m", "v", 1100, nil)}
	lines, failed := compare(baseline, current, 0.15)
	if failed {
		t.Fatalf("10%% slowdown failed at 15%% threshold: %+v", lines)
	}
}

func writeRows(t *testing.T, path string, rows []Row) {
	t.Helper()
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base, cur := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	writeRows(t, base, []Row{row("B", "m", "v", 1000, nil)})
	writeRows(t, cur, []Row{row("B", "m", "v", 1050, nil)})
	var stdout, stderr bytes.Buffer
	jsonOut := filepath.Join(dir, "diff.json")
	if code := run([]string{"-baseline", base, "-current", cur, "-json", jsonOut}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "PASS") {
		t.Errorf("stderr missing PASS: %s", stderr.String())
	}
	var lines []diffLine
	payload, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &lines); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Verdict != "ok" {
		t.Fatalf("json verdicts %+v", lines)
	}

	writeRows(t, cur, []Row{row("B", "m", "v", 2000, nil)})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, "-current", cur}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on 2x regression, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "REGRESS") {
		t.Errorf("stdout missing REGRESS line: %s", stdout.String())
	}
}

func TestRunBadInputs(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", empty, "-current", empty}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on empty baseline, want 2", code)
	}
	if code := run([]string{"-current", empty}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d with missing -baseline, want 2", code)
	}
	if code := run([]string{"-baseline", empty, "-current", empty, "-threshold", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d with zero threshold, want 2", code)
	}
}

// syntheticSuite returns a small suite with two frozen reference rows, the
// runner rows beside them and one throughput row, each timed at scale×
// the base figures; reference rows are scaled by refScale instead.
func syntheticSuite(scale, refScale float64) []Row {
	return []Row{
		row("BenchmarkSimRun", "AlexNet v2", "reference", 360e3*refScale, nil),
		row("BenchmarkSimRun", "AlexNet v2", "runner", 98e3*scale, nil),
		row("BenchmarkSimRun", "VGG-16", "reference", 661e3*refScale, nil),
		row("BenchmarkSimRun", "VGG-16", "runner", 193e3*scale, nil),
		row("BenchmarkBatchThroughput", "AlexNet v2", "jobs1", 3.7e6*scale, map[string]float64{"variants/sec": 6400 / scale}),
	}
}

// runSuites writes both suites and runs perfdiff on them at its default
// threshold, returning the exit code, stdout and the JSON verdicts.
func runSuites(t *testing.T, baseline, current []Row) (int, string, []diffLine) {
	t.Helper()
	dir := t.TempDir()
	base, cur, jsonOut := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json"), filepath.Join(dir, "diff.json")
	writeRows(t, base, baseline)
	writeRows(t, cur, current)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", base, "-current", cur, "-json", jsonOut}, &stdout, &stderr)
	payload, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var lines []diffLine
	if err := json.Unmarshal(payload, &lines); err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), lines
}

// TestRunMachineDiffers: every row 3× slower, the frozen reference rows
// included, is a slower machine, not slower code. perfdiff prints one
// MACHINE verdict naming the ratio, judges no row and exits 3.
func TestRunMachineDiffers(t *testing.T) {
	code, stdout, lines := runSuites(t, syntheticSuite(1, 1), syntheticSuite(3, 3))
	if code != exitMachine {
		t.Fatalf("exit %d, want %d\n%s", code, exitMachine, stdout)
	}
	if strings.Contains(stdout, "REGRESS") || !strings.Contains(stdout, "MACHINE") || !strings.Contains(stdout, "3.00×") {
		t.Errorf("want one MACHINE line naming 3.00× and no REGRESS line:\n%s", stdout)
	}
	if len(lines) != 1 || lines[0].Verdict != "machine" || lines[0].Key != referenceKey || lines[0].Current != 3 {
		t.Errorf("json verdicts %+v, want one machine verdict at ratio 3", lines)
	}
}

// TestRunSameMachineRegresses: the same 3× slowdown with the reference
// rows unchanged is the code's doing, so every other row gets its own
// regression verdict and perfdiff exits 1.
func TestRunSameMachineRegresses(t *testing.T) {
	code, stdout, lines := runSuites(t, syntheticSuite(1, 1), syntheticSuite(3, 1))
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stdout)
	}
	if strings.Contains(stdout, "MACHINE") {
		t.Errorf("unchanged reference rows gave a machine verdict:\n%s", stdout)
	}
	verdicts := map[string]string{}
	for _, l := range lines {
		verdicts[l.Key] = l.Verdict
	}
	for _, r := range syntheticSuite(1, 1) {
		want := "regression"
		if r.Variant == "reference" {
			want = "ok"
		}
		if verdicts[r.key()] != want {
			t.Errorf("%s: verdict %q, want %q", r.key(), verdicts[r.key()], want)
		}
	}
}
