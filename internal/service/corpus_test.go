package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tictac/internal/cluster"
	"tictac/internal/fleet"
)

var update = flag.Bool("update", false, "regenerate the response corpus under testdata/corpus")

// corpusDir holds the response corpus: requests.json is written by hand,
// responses.json and the <name>.golden files are written by -update.
var corpusDir = filepath.Join("testdata", "corpus")

// corpusRequest is one entry of testdata/corpus/requests.json.
type corpusRequest struct {
	Name string `json:"name"`
	// Method defaults to POST.
	Method string `json:"method,omitempty"`
	Path   string `json:"path"`
	// Body is sent byte for byte as it appears in the file. Text replaces
	// it for bodies that are not JSON, and Pad prepends that many spaces.
	Body json.RawMessage `json:"body,omitempty"`
	Text string          `json:"text,omitempty"`
	Pad  int             `json:"pad,omitempty"`
	// Fleet sends the request to the fleet-mode service instead.
	Fleet bool `json:"fleet,omitempty"`
	// Full keeps the whole response in <name>.golden, so that a change
	// prints a readable diff instead of two digests.
	Full bool `json:"full,omitempty"`
}

// corpusResponse is one entry of testdata/corpus/responses.json.
type corpusResponse struct {
	Name   string `json:"name"`
	Status int    `json:"status"`
	SHA256 string `json:"sha256"`
}

// unreachable is the corpus fleet's transport: every peer is down, so no
// request leaves the process and every forward fails with the same error.
type unreachable struct{}

func (unreachable) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("peer unreachable")
}

// corpusServices returns the two services the corpus replays through: a
// plain one, and a fleet member "a" whose peers "b" and "c" never answer.
// Batches are capped at 16 variants so that batch_too_large needs a short
// body; nothing else differs from the defaults.
func corpusServices(t *testing.T) (plain, fleetMode http.Handler) {
	t.Helper()
	client := &http.Client{Transport: unreachable{}}
	node, err := fleet.NewNode(fleet.Config{
		Self: "a",
		Members: []fleet.Member{
			{ID: "a", URL: "http://a.invalid"},
			{ID: "b", URL: "http://b.invalid"},
			{ID: "c", URL: "http://c.invalid"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain = New(Options{MaxBatch: 16}).Handler()
	fleetMode = New(Options{MaxBatch: 16, Fleet: node, FleetClient: client}).Handler()
	return plain, fleetMode
}

// TestResponseCorpus replays the committed request corpus, in order,
// through fresh in-process services and compares every response's status
// and SHA-256 with the committed ones. It pins response bytes across
// commits: a change that moves any byte of any entry fails here. A change
// that moves bytes on purpose regenerates the corpus with
// `go test ./internal/service -run TestResponseCorpus -update` and names
// every changed entry.
//
// A second pass replays the corpus through another pair of fresh services
// with two GCs before every request, so every cached cluster has lost its
// graph and reference worker when the next request reads them: the
// rebuilt graphs and reference workers must answer with the same bytes.
func TestResponseCorpus(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(corpusDir, "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []corpusRequest
	if err := json.Unmarshal(raw, &reqs); err != nil {
		t.Fatalf("requests.json: %v", err)
	}
	names := map[string]bool{}
	for _, rq := range reqs {
		if names[rq.Name] {
			t.Fatalf("requests.json: duplicate entry %q", rq.Name)
		}
		names[rq.Name] = true
	}
	got, bodies := replayCorpus(t, reqs, false)

	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, "responses.json"), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		for i, rq := range reqs {
			if rq.Full {
				if err := os.WriteFile(filepath.Join(corpusDir, rq.Name+".golden"), bodies[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}

	raw, err = os.ReadFile(filepath.Join(corpusDir, "responses.json"))
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want []corpusResponse
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("responses.json: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("responses.json has %d entries for %d requests (run with -update after editing requests.json)", len(want), len(got))
	}
	compareCorpus(t, "", reqs, got, bodies, want)

	graphs, refs := cluster.Rebuilds()
	got, bodies = replayCorpus(t, reqs, true)
	graphsGC, refsGC := cluster.Rebuilds()
	graphsGC, refsGC = graphsGC-graphs, refsGC-refs
	t.Logf("collected pass: %d graphs rebuilt, %d reference workers built", graphsGC, refsGC)
	compareCorpus(t, "collected pass: ", reqs, got, bodies, want)
	if graphsGC == 0 {
		t.Error("collected pass: no graph was rebuilt, so the pass does not reach the rebuild path")
	}
}

// replayCorpus sends every corpus request, in order, to a fresh pair of
// corpus services and returns each response's digest and body. With
// collect set it runs two GCs before every request.
func replayCorpus(t *testing.T, reqs []corpusRequest, collect bool) ([]corpusResponse, [][]byte) {
	t.Helper()
	plain, fleetMode := corpusServices(t)
	got := make([]corpusResponse, len(reqs))
	bodies := make([][]byte, len(reqs))
	for i, rq := range reqs {
		method := rq.Method
		if method == "" {
			method = http.MethodPost
		}
		body := []byte(rq.Text)
		if rq.Body != nil {
			body = rq.Body
		}
		body = append(bytes.Repeat([]byte(" "), rq.Pad), body...)
		req := httptest.NewRequest(method, rq.Path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h := plain
		if rq.Fleet {
			h = fleetMode
		}
		if collect {
			runtime.GC()
			runtime.GC()
		}
		h.ServeHTTP(rec, req)
		sum := sha256.Sum256(rec.Body.Bytes())
		got[i] = corpusResponse{Name: rq.Name, Status: rec.Code, SHA256: hex.EncodeToString(sum[:])}
		bodies[i] = rec.Body.Bytes()
	}
	return got, bodies
}

// compareCorpus reports every replayed response that differs from the
// committed one, with a diff against its golden file where there is one.
func compareCorpus(t *testing.T, pass string, reqs []corpusRequest, got []corpusResponse, bodies [][]byte, want []corpusResponse) {
	t.Helper()
	for i, rq := range reqs {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("entry %d is %q in requests.json but %q in responses.json (run with -update)", i, g.Name, w.Name)
		}
		if g == w {
			continue
		}
		if !rq.Full {
			t.Errorf("%s%s: status %d sha256 %s, want status %d sha256 %s", pass, rq.Name, g.Status, g.SHA256, w.Status, w.SHA256)
			continue
		}
		golden, err := os.ReadFile(filepath.Join(corpusDir, rq.Name+".golden"))
		if err != nil {
			t.Errorf("%s%s: status %d, want %d; %v", pass, rq.Name, g.Status, w.Status, err)
			continue
		}
		t.Errorf("%s%s: status %d, want %d; the response differs from %s.golden:\n%s", pass, rq.Name, g.Status, w.Status, rq.Name, corpusDiff(bodies[i], golden))
	}
}

// corpusDiff shows where got parts from want, on their indented JSON
// forms: a schedule response is one long line, indented it is one field a
// line.
func corpusDiff(got, want []byte) string {
	g, w := indentedLines(got), indentedLines(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d of the indented response\n", i+1)
	for _, l := range w[max(i-3, 0):i] {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	for _, l := range w[i:min(i+4, len(w))] {
		fmt.Fprintf(&b, "- %s\n", l)
	}
	for _, l := range g[i:min(i+4, len(g))] {
		fmt.Fprintf(&b, "+ %s\n", l)
	}
	return b.String()
}

func indentedLines(body []byte) []string {
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		buf.Reset()
		buf.Write(body)
	}
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}
