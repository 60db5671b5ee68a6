package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tictac/internal/bench"
)

func TestParseArgsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.experiments) != 16 {
		t.Fatalf("experiments = %d, want 16", len(cfg.experiments))
	}
	if cfg.opts.Policies != nil {
		t.Fatalf("default policies = %v, want nil (all registered)", cfg.opts.Policies)
	}
	if cfg.opts.Seed != 1 || cfg.opts.Jobs != 0 || cfg.jsonPath != "" {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Default scale is Quick, not Full.
	if cfg.opts.Runs != 40 {
		t.Fatalf("default Runs = %d, want Quick's 40", cfg.opts.Runs)
	}
}

func TestParseArgsSubsetPreservesRegistryOrder(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-exp", "fig12, FIG7"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.experiments) != 2 {
		t.Fatalf("experiments = %d", len(cfg.experiments))
	}
	// Registry order, not selector order; names case-insensitive.
	if cfg.experiments[0].Name != "fig7" || cfg.experiments[1].Name != "fig12" {
		t.Fatalf("order = %s, %s", cfg.experiments[0].Name, cfg.experiments[1].Name)
	}
}

func TestParseArgsUnknownExperiment(t *testing.T) {
	var stderr bytes.Buffer
	_, err := parseArgs([]string{"-exp", "fig7,fig99"}, &stderr)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "fig13") {
		t.Fatalf("error should list known experiments: %v", err)
	}
}

func TestParseArgsRejectsAllPlusExplicit(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseArgs([]string{"-exp", "all,fig7"}, &stderr); err == nil {
		t.Fatal("want error for 'all,fig7'")
	}
}

func TestParseArgsFullJobsJSONSeed(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-full", "-jobs", "4", "-json", "out.json", "-seed", "7"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.Runs != 1000 || cfg.opts.Jobs != 4 || cfg.opts.Seed != 7 || cfg.jsonPath != "out.json" {
		t.Fatalf("cfg = %+v opts = %+v", cfg, cfg.opts)
	}
}

func TestParseArgsRejectsNegativeJobsAndPositionalArgs(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseArgs([]string{"-jobs", "-2"}, &stderr); err == nil {
		t.Fatal("want error for -jobs -2")
	}
	if _, err := parseArgs([]string{"stray"}, &stderr); err == nil {
		t.Fatal("want error for positional arguments")
	}
}

func TestAppMainBadFlagsExitCode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := appMain([]string{"-exp", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

func TestAppMainRunsTable1WithJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := appMain([]string{"-exp", "table1", "-jobs", "2", "-json", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1: DNN model characteristics") {
		t.Fatalf("stdout missing table: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "table1") || !strings.Contains(stderr.String(), "total") {
		t.Fatalf("stderr missing timings: %q", stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Experiment string          `json:"experiment"`
		Seconds    float64         `json:"seconds"`
		Rows       json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(reports) != 1 || reports[0].Experiment != "table1" || reports[0].Seconds < 0 {
		t.Fatalf("reports = %+v", reports)
	}
	if !strings.Contains(string(reports[0].Rows), "VGG-16") {
		t.Fatalf("rows missing model data: %s", reports[0].Rows)
	}
}

func TestParseArgsProfileFlags(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseArgs([]string{"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.cpuProfile != "cpu.pprof" || cfg.memProfile != "mem.pprof" {
		t.Fatalf("profile paths = %q, %q", cfg.cpuProfile, cfg.memProfile)
	}
	// Defaults: profiling off.
	cfg, err = parseArgs(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.cpuProfile != "" || cfg.memProfile != "" {
		t.Fatalf("profiles on by default: %+v", cfg)
	}
}

// TestAppMainWritesProfiles runs a real (tiny) experiment with both
// profiles enabled and checks that non-empty pprof files appear — the
// evidence channel future perf PRs rely on.
func TestAppMainWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := appMain([]string{"-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestAppMainCPUProfileUnwritable: a bad profile path must fail loudly (exit
// 1), not silently drop the profile.
func TestAppMainCPUProfileUnwritable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := appMain([]string{"-exp", "table1", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "cpuprofile") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

func TestAppMainJSONToStdoutIsPureJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := appMain([]string{"-exp", "table1", "-json", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, stderr.String())
	}
	// With -json - the whole stdout stream must be machine-parseable: text
	// tables are suppressed.
	var reports []jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &reports); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%q", err, stdout.String())
	}
	if len(reports) != 1 || reports[0].Experiment != "table1" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestRunAppWritesPartialJSONOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	cfg := &appConfig{
		jsonPath: path,
		experiments: []bench.Experiment{
			{Name: "good", Run: func(o bench.Options, w io.Writer) (any, error) {
				return []string{"row"}, nil
			}},
			{Name: "bad", Run: func(o bench.Options, w io.Writer) (any, error) {
				return nil, errors.New("boom")
			}},
			{Name: "never", Run: func(o bench.Options, w io.Writer) (any, error) {
				t.Fatal("experiment after a failure must not run")
				return nil, nil
			}},
		},
	}
	var stdout, stderr bytes.Buffer
	err := runApp(cfg, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "bad: boom") {
		t.Fatalf("err = %v", err)
	}
	// The completed experiment's rows survive the late failure.
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var reports []jsonReport
	if jerr := json.Unmarshal(data, &reports); jerr != nil {
		t.Fatalf("bad JSON: %v", jerr)
	}
	if len(reports) != 2 || reports[0].Experiment != "good" || reports[1].Error != "boom" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestAppMainHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := appMain([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "Usage of tictac-bench") {
		t.Fatalf("usage text missing: %q", stderr.String())
	}
}
