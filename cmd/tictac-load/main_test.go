package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tictac/internal/fleet"
	"tictac/internal/loadgen"
	"tictac/internal/service"
	"tictac/internal/trace"
)

// runOK runs the command, requires exit 0 with PASS on stderr, and returns
// the report from the -report file after checking stdout carries the same
// one.
func runOK(t *testing.T, args ...string) loadgen.Report {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-report", path), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "PASS") {
		t.Errorf("stderr missing PASS: %s", stderr.String())
	}
	payload, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, stdout.Bytes()) {
		t.Error("stdout and -report hold different reports")
	}
	var r loadgen.Report
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, payload)
	}
	return r
}

func TestLoadtestInProcess(t *testing.T) {
	r := runOK(t, "-requests", "20", "-concurrency", "4")
	if r.Events != 20 || r.DistinctKeys != 6 || len(r.Curves) != 1 {
		t.Fatalf("report = %+v, want 20 events over the mix's 6 keys on one curve", r)
	}
	c := r.Curves[0]
	if c.Policy != "lru" || c.Capacity != service.DefaultCacheCapacity || c.Mismatches != 0 || c.Probes == nil {
		t.Errorf("curve = %+v, want a probed lru × %d curve with no mismatches", c, service.DefaultCacheCapacity)
	}
}

func TestTraceReplayInProcess(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.trace.json")
	w, err := trace.Generate(trace.GeneratorSpec{
		Kind: trace.GenZipf, Seed: 3, Events: 40, Configs: 6, Models: []string{"AlexNet v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkloadFile(tracePath, w); err != nil {
		t.Fatal(err)
	}
	r := runOK(t, "-trace", tracePath, "-sizes", "3", "-evict", "lru")
	if len(r.Curves) != 1 || r.Events != 40 || r.Curves[0].Probes != nil {
		t.Errorf("report = %+v, want one unprobed curve over 40 events", r)
	}
	// The offline section includes the oracle even though only lru was
	// requested.
	oracle := false
	for _, row := range r.Offline {
		oracle = oracle || row.Policy == "belady"
	}
	if !oracle {
		t.Error("offline section missing the belady oracle")
	}
}

func TestFleetLoadtestThroughDaemons(t *testing.T) {
	// Two real fleet members over loopback, driven through both.
	lns := make([]net.Listener, 2)
	members := make([]fleet.Member, 2)
	for i, id := range []string{"n0", "n1"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = fleet.Member{ID: id, URL: "http://" + ln.Addr().String()}
	}
	for i, ln := range lns {
		node, err := fleet.NewNode(fleet.Config{Self: members[i].ID, Members: members})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: service.New(service.Options{Fleet: node}).Handler()}
		go srv.Serve(ln)
		defer srv.Close()
	}

	r := runOK(t, "-targets", members[0].URL+","+members[1].URL, "-requests", "30", "-concurrency", "4")
	if len(r.Targets) != 2 || len(r.Curves) != 1 {
		t.Fatalf("report targets %v with %d curves, want both nodes on one curve", r.Targets, len(r.Curves))
	}
	if c := r.Curves[0]; c.Mismatches != 0 || c.Failures != 0 || len(c.PerNode) != 2 {
		t.Errorf("fleet run saw %d mismatches, %d failures, per-node stats for %d nodes; want 0, 0, 2",
			c.Mismatches, c.Failures, len(c.PerNode))
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-trace", "x.json", "-evict", "bogus"},
		{"-sizes", "4,0"},
		{"-sizes", "many"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestMissingTraceFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", filepath.Join(t.TempDir(), "none.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-targets") {
		t.Errorf("usage text missing: %s", stderr.String())
	}
}
