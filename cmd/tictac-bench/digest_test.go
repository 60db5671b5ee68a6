package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/bench_digests.json")

// TestBenchDigests runs every experiment at quick scale through the CLI,
// as `tictac-bench -json` does, and compares each experiment's rows with a
// committed SHA-256 (timings are not part of the rows). It pins the bench
// suite's output across commits: a change that moves any number of any
// experiment fails here. A change that moves rows on purpose regenerates
// the digests with `go test ./cmd/tictac-bench -run TestBenchDigests
// -update` and names every experiment that changed.
func TestBenchDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale; skipped with -short")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	if code := appMain([]string{"-json", path}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Experiment string          `json:"experiment"`
		Rows       json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(reports))
	for _, r := range reports {
		sum := sha256.Sum256(r.Rows)
		got[r.Experiment] = hex.EncodeToString(sum[:])
	}

	golden := filepath.Join("testdata", "bench_digests.json")
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if want[r.Experiment] != got[r.Experiment] {
			t.Errorf("%s: rows digest %s, want %s", r.Experiment, got[r.Experiment], want[r.Experiment])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned, but tictac-bench no longer runs it", name)
		}
	}
}
