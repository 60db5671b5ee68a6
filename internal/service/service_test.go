package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/timing"
)

func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// directScheduleResult computes the expected canonical payload for a
// request straight through the library, bypassing the service entirely.
func directScheduleResult(t *testing.T, req ScheduleRequest) []byte {
	t.Helper()
	res, err := req.Workload.resolve()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Build(res.cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := computeScheduleResult(&clusterEntry{
		c:              c,
		graphDigest:    core.GraphDigest(c.Graph),
		platformDigest: res.key.platformDigest,
	}, res, new(atomic.Uint64))
	if err != nil {
		t.Fatal(err)
	}
	return entry.payload
}

// compactResult extracts and compacts the "result" member of a response.
func compactResult(t *testing.T, payload []byte) []byte {
	t.Helper()
	var resp ScheduleResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("decode response: %v\n%s", err, payload)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, resp.Result); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := ScheduleRequest{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Workers: 2, PS: 1, Seed: 1}}

	resp, payload := post(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached {
		t.Error("first request reported cached=true")
	}
	var result ScheduleResult
	if err := json.Unmarshal(sr.Result, &result); err != nil {
		t.Fatal(err)
	}
	if result.Algorithm != "tic" || result.Transfers != 16 || len(result.Order) != 16 {
		t.Errorf("result = algo %q, %d transfers (want tic over AlexNet's 16 params)", result.Algorithm, result.Transfers)
	}
	if result.PredictedMakespan <= 0 {
		t.Errorf("predicted makespan = %v, want > 0", result.PredictedMakespan)
	}
	if len(result.GraphDigest) != 64 || len(result.PlatformDigest) != 64 {
		t.Errorf("digests not hex sha256: %q %q", result.GraphDigest, result.PlatformDigest)
	}

	// Byte-identical to the direct library computation.
	if got, want := compactResult(t, payload), directScheduleResult(t, req); !bytes.Equal(got, want) {
		t.Errorf("served result differs from direct library call:\n got %s\nwant %s", got, want)
	}

	// The repeat must be a cache hit with the identical payload.
	resp2, payload2 := post(t, ts.URL+"/v1/schedule", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var sr2 ScheduleResponse
	if err := json.Unmarshal(payload2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Error("repeat request reported cached=false")
	}
	if !bytes.Equal(compactResult(t, payload), compactResult(t, payload2)) {
		t.Error("cached payload differs from first response")
	}
}

func TestScheduleDigestKeyUnifiesEquivalentRequests(t *testing.T) {
	// batch_factor 0 and 1 resolve to the same batch; iterations 0 and 1 to
	// the same graph. Digest keying must land them in one cache slot.
	svc, ts := newTestServer(t, Options{})
	a := ScheduleRequest{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Seed: 1}}
	b := ScheduleRequest{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Seed: 1, BatchFactor: 1, Iterations: 1}}
	post(t, ts.URL+"/v1/schedule", a)
	_, payloadB := post(t, ts.URL+"/v1/schedule", b)
	var sr ScheduleResponse
	if err := json.Unmarshal(payloadB, &sr); err != nil {
		t.Fatal(err)
	}
	_, schedBuilds := svc.BuildCounts()
	if schedBuilds != 1 {
		t.Errorf("semantically identical requests built %d schedules, want 1", schedBuilds)
	}
	// The cluster key normalizes both fields to the graph they build, so
	// the two requests share one cluster slot too.
	clBuilds, _ := svc.BuildCounts()
	if clBuilds != 1 {
		t.Errorf("cluster builds = %d, want 1", clBuilds)
	}
}

// TestOneClusterSlotPerGraph requires requests that build one graph to
// share one cluster slot and one fleet owner however they phrase it: an
// omitted batch_factor, 1, or any factor that rounds to the standard
// batch, and iterations omitted or 1. The key of a request omitting both
// fields keeps its historical rendering, so no fleet routing moves.
func TestOneClusterSlotPerGraph(t *testing.T) {
	same := []string{
		`{"workload": {"model": "AlexNet v2"}}`,
		`{"workload": {"model": "AlexNet v2", "batch_factor": 1}}`,
		`{"workload": {"model": "AlexNet v2", "iterations": 1}}`,
		`{"workload": {"model": "AlexNet v2", "batch_factor": 1.001, "iterations": 1}}`,
	}
	svc, ts := newTestServer(t, Options{})
	var key string
	for i, body := range same {
		res, err := resolveBody([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			key = res.fleetKey()
		} else if res.fleetKey() != key {
			t.Errorf("%s routes on %q, want %q", body, res.fleetKey(), key)
		}
		if resp, payload := post(t, ts.URL+"/v1/schedule", json.RawMessage(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", body, resp.StatusCode, payload)
		}
	}
	if clBuilds, schedBuilds := svc.BuildCounts(); clBuilds != 1 || schedBuilds != 1 {
		t.Errorf("one graph cost %d cluster and %d schedule builds, want 1 and 1", clBuilds, schedBuilds)
	}
	want := fmt.Sprintf("{AlexNet v2 training 1 1 0 0 false %s }", core.PlatformDigest(timing.EnvG()))
	if key != want {
		t.Errorf("default key renders %q, want %q", key, want)
	}

	for _, body := range []string{
		`{"workload": {"model": "AlexNet v2", "batch_factor": 2}}`,
		`{"workload": {"model": "AlexNet v2", "iterations": 2}}`,
	} {
		res, err := resolveBody([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if res.fleetKey() == key {
			t.Errorf("%s shares the standard graph's key %q", body, key)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		code string
	}{
		{"unknown model", `{"workload": {"model": "NoSuchNet"}}`, CodeUnknownModel},
		{"empty object", `{}`, CodeUnknownModel},
		{"unknown policy", `{"workload": {"model": "AlexNet v2", "policy": "quantum"}}`, CodeUnknownPolicy},
		{"unknown mode", `{"workload": {"model": "AlexNet v2", "mode": "dreaming"}}`, CodeUnknownMode},
		{"unknown env", `{"workload": {"model": "AlexNet v2", "env": "envZ"}}`, CodeUnknownEnv},
		{"negative workers", `{"workload": {"model": "AlexNet v2", "workers": -1}}`, CodeBadRequest},
		{"oversized cluster", `{"workload": {"model": "AlexNet v2", "workers": 10000}}`, CodeBadRequest},
		{"unknown field", `{"workload": {"model": "AlexNet v2", "wrokers": 2}}`, CodeBadRequest},
		{"malformed json", `{"workload": {"model": `, CodeBadRequest},
		{"mixed envelope and flat", `{"workload": {"model": "AlexNet v2"}, "model": "AlexNet v2"}`, CodeBadRequest},
		{"flat body", `{"model": "AlexNet v2"}`, CodeBadRequest},
		{"bad override key", `{"workload": {"model": "AlexNet v2", "overrides": {"devices": {"worker:99": {"slow_compute": 2}}}}}`, CodeBadRequest},
		{"trailing garbage", trailingGarbage, CodeBadRequest},
		{"second request object", trailingRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, payload)
		}
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
			t.Errorf("%s: error body not the structured envelope: %s", tc.name, payload)
		} else if e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule status %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("405 carries Allow %q, want POST", resp.Header.Get("Allow"))
	}
	var e ErrorResponse
	if err := json.Unmarshal(payload, &e); err != nil || e.Error.Code != CodeMethodNotAllowed {
		t.Errorf("405 body not the structured envelope with %s: %s", CodeMethodNotAllowed, payload)
	}

	resp, err = http.Get(ts.URL + "/v1/does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
	if err := json.Unmarshal(payload, &e); err != nil || e.Error.Code != CodeNotFound {
		t.Errorf("404 body not the structured envelope with %s: %s", CodeNotFound, payload)
	}
}

// Bodies with data after the request object: both were once served as if
// the data were not there.
const (
	trailingGarbage = `{"workload":{"model":"AlexNet v2"}} trailing garbage`
	trailingRequest = `{"workload":{"model":"AlexNet v2"}}{"workload":{"model":"VGG-16"}}`
)

// TestTrailingDataIsBadRequest requires data after the request object to
// get the structured 400 on every POST endpoint that reads a body, and a
// trailing newline to stay legal.
func TestTrailingDataIsBadRequest(t *testing.T) {
	nodes := startTestFleet(t, 2)
	postRaw := func(path, body string) (*http.Response, []byte) {
		resp, err := http.Post(nodes[0].url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, payload
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/schedule", `{"workload": {"model": "AlexNet v2"}}`},
		{"/v1/simulate", `{"workload": {"model": "AlexNet v2", "measure_iterations": 1}}`},
		{"/v1/batch", `{"workload": {"model": "AlexNet v2", "measure_iterations": 1}, "variants": [{}]}`},
		{"/v1/fleet/warm", `{"workloads": [{"model": "AlexNet v2"}]}`},
	} {
		for _, trailing := range []string{" trailing garbage", tc.body, "]"} {
			resp, payload := postRaw(tc.path, tc.body+trailing)
			var e ErrorResponse
			if err := json.Unmarshal(payload, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
				t.Errorf("%s with %q after the body: %d %s, want 400 %s", tc.path, trailing, resp.StatusCode, payload, CodeBadRequest)
			}
		}
		if resp, payload := postRaw(tc.path, tc.body+"\n"); resp.StatusCode != http.StatusOK {
			t.Errorf("%s with a trailing newline: %d %s, want 200", tc.path, resp.StatusCode, payload)
		}
	}
}

// corpusEntry returns a committed corpus request and, for a full entry,
// the response bytes it got when the corpus was generated.
func corpusEntry(t *testing.T, name string) (corpusRequest, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(corpusDir, "requests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []corpusRequest
	if err := json.Unmarshal(raw, &reqs); err != nil {
		t.Fatal(err)
	}
	for _, rq := range reqs {
		if rq.Name == name {
			golden, err := os.ReadFile(filepath.Join(corpusDir, name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			return rq, golden
		}
	}
	t.Fatalf("corpus has no entry %q", name)
	return corpusRequest{}, nil
}

// TestLegacyFlatRequestCompatibility pins the removal of the pre-envelope
// flat layout, which spelled the workload fields at the top level: a flat
// body is a 400 bad_request on every endpoint that takes a workload, and
// its envelope twin still gets the bytes the corpus committed for it.
func TestLegacyFlatRequestCompatibility(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, name := range []string{"schedule-tic", "simulate-tic", "batch-ranked"} {
		rq, golden := corpusEntry(t, name)
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rq.Body, &fields); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fields["workload"], &fields); err != nil {
			t.Fatal(err)
		}
		delete(fields, "workload")
		resp, payload := post(t, ts.URL+rq.Path, fields)
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
			t.Errorf("%s flat body: %d %s, want 400 %s", rq.Path, resp.StatusCode, payload, CodeBadRequest)
		}
		if resp, payload := post(t, ts.URL+rq.Path, rq.Body); resp.StatusCode != http.StatusOK || !bytes.Equal(payload, golden) {
			t.Errorf("%s envelope twin: %d, bytes differ from %s.golden:\n%s", rq.Path, resp.StatusCode, name, corpusDiff(payload, golden))
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SimulateRequest{Workload: WorkloadSpec{
		Model: "AlexNet v2", Policy: "tic", Workers: 2, Seed: 7,
		WarmupIterations:  1,
		MeasureIterations: 3,
	}}
	resp, payload := post(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(payload, &sim); err != nil {
		t.Fatal(err)
	}
	r := sim.Result
	if r.MeanMakespan <= 0 || r.MeanThroughput <= 0 {
		t.Errorf("degenerate simulate result: %+v", r)
	}
	if len(r.Makespans) != 3 {
		t.Errorf("got %d measured makespans, want 3", len(r.Makespans))
	}
	if r.MeanEfficiency <= 0 || r.MeanEfficiency > 1 {
		t.Errorf("efficiency %v out of (0, 1]", r.MeanEfficiency)
	}

	// Determinism: the same request must return identical bytes.
	_, payload2 := post(t, ts.URL+"/v1/simulate", req)
	var sim2 SimulateResponse
	if err := json.Unmarshal(payload2, &sim2); err != nil {
		t.Fatal(err)
	}
	if !sim2.Cached {
		t.Error("repeat simulate reported cached=false")
	}
	b1, _ := json.Marshal(sim.Result)
	b2, _ := json.Marshal(sim2.Result)
	if !bytes.Equal(b1, b2) {
		t.Errorf("simulate not deterministic:\n%s\n%s", b1, b2)
	}

	// Baseline (none) must differ from tic in schedule digest and carry no
	// order.
	base := req
	base.Workload.Policy = "none"
	_, payload3 := post(t, ts.URL+"/v1/simulate", base)
	var sim3 SimulateResponse
	if err := json.Unmarshal(payload3, &sim3); err != nil {
		t.Fatal(err)
	}
	if sim3.Result.ScheduleDigest == sim.Result.ScheduleDigest {
		t.Error("baseline and tic share a schedule digest")
	}
}

func TestPoliciesHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, payload := get(t, ts.URL+"/v1/policies")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policies status %d", resp.StatusCode)
	}
	var pol PoliciesResponse
	if err := json.Unmarshal(payload, &pol); err != nil {
		t.Fatal(err)
	}
	if pol.Baseline != "none" || len(pol.Policies) < 7 {
		t.Errorf("policies = %+v, want baseline none and the 7 built-ins", pol)
	}
	found := false
	for _, p := range pol.Policies {
		if p == "tac" {
			found = true
		}
	}
	if !found {
		t.Error("tac missing from policy list")
	}

	resp, payload = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(payload), `"ok"`) {
		t.Errorf("healthz = %d %s", resp.StatusCode, payload)
	}

	// Drive one schedule request, then check the metrics reflect it.
	post(t, ts.URL+"/v1/schedule", ScheduleRequest{Workload: WorkloadSpec{Model: "AlexNet v2"}})
	resp, payload = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var m MetricsResponse
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["schedule"].Count != 1 {
		t.Errorf("schedule count = %d, want 1", m.Requests["schedule"].Count)
	}
	if m.Requests["schedule"].LatencySeconds.Count != 1 || m.Requests["schedule"].LatencySeconds.P50 <= 0 {
		t.Errorf("schedule latency not recorded: %+v", m.Requests["schedule"].LatencySeconds)
	}
	if m.Builds.Schedules != 1 || m.Cache.Schedules.Misses != 1 {
		t.Errorf("builds/misses = %d/%d, want 1/1", m.Builds.Schedules, m.Cache.Schedules.Misses)
	}
	if m.UptimeSeconds <= 0 {
		t.Error("uptime not positive")
	}
}

// TestMetricsEvictionCounters drives a tiny-capacity server past its
// schedule-cache budget and checks /metrics surfaces the eviction story:
// the active policy by name and exact counts, since the capacity is one
// global bound.
func TestMetricsEvictionCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheCapacity: 2})
	for _, policy := range []string{"tic", "critical-path", "fifo", "random"} {
		for seed := int64(1); seed <= 2; seed++ {
			resp, payload := post(t, ts.URL+"/v1/schedule",
				ScheduleRequest{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: policy, Seed: seed}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("schedule %s/%d: %d %s", policy, seed, resp.StatusCode, payload)
			}
		}
	}
	resp, payload := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var m MetricsResponse
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	sch := m.Cache.Schedules
	if sch.Policy != "lru" {
		t.Errorf("schedules cache policy = %q, want lru (the default)", sch.Policy)
	}
	if sch.Resident != 2 || sch.Evictions != 6 {
		t.Fatalf("8 distinct schedules through capacity 2: resident %d, evictions %d; want 2 and 6 (%+v)",
			sch.Resident, sch.Evictions, sch)
	}
	if m.Cache.Clusters.Policy != "lru" {
		t.Errorf("clusters cache counters missing policy: %+v", m.Cache.Clusters)
	}
}

// TestConcurrentCoalescing is the service's concurrency contract test: 48
// goroutines (32 identical + 16 across three other configs) slam a cold
// server through real HTTP, with the schedule build artificially held open
// so the identical requests are in flight together. Exactly one build per
// distinct config may run, and every response must be byte-identical to the
// direct cluster.ComputeSchedule-based computation.
func TestConcurrentCoalescing(t *testing.T) {
	svc := New(Options{})
	// Hold every build open briefly so concurrent identical requests pile
	// onto the in-flight entry instead of arriving after completion.
	svc.scheduleBuildHook = func() { time.Sleep(100 * time.Millisecond) }
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	hot := ScheduleRequest{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Workers: 2, PS: 1, Seed: 1}}
	cold := []ScheduleRequest{
		{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: "critical-path", Workers: 2, PS: 1, Seed: 1}},
		{Workload: WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Workers: 3, PS: 1, Seed: 1}},
		{Workload: WorkloadSpec{Model: "Inception v1", Policy: "tic", Workers: 2, PS: 1, Seed: 1}},
	}
	expected := map[string][]byte{}
	for _, r := range append([]ScheduleRequest{hot}, cold...) {
		expected[requestLabel(r)] = directScheduleResult(t, r)
	}

	const hotN, coldN = 32, 16
	type reply struct {
		label   string
		payload []byte
		status  int
	}
	replies := make([]reply, hotN+coldN)
	var wg sync.WaitGroup
	for i := 0; i < hotN+coldN; i++ {
		req := hot
		if i >= hotN {
			req = cold[(i-hotN)%len(cold)]
		}
		wg.Add(1)
		go func(i int, req ScheduleRequest) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			replies[i] = reply{label: requestLabel(req), payload: payload, status: resp.StatusCode}
		}(i, req)
	}
	wg.Wait()

	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.payload)
		}
		if got := compactResult(t, r.payload); !bytes.Equal(got, expected[r.label]) {
			t.Errorf("request %d (%s) diverged from direct library computation", i, r.label)
		}
	}

	// Exactly one schedule build per distinct config, no matter how many
	// requests were in flight.
	_, schedBuilds := svc.BuildCounts()
	if want := uint64(1 + len(cold)); schedBuilds != want {
		t.Errorf("schedule builds = %d, want %d (one per distinct config)", schedBuilds, want)
	}
	// Note: "Inception v1 w2" and "AlexNet v2 w3" are distinct clusters;
	// hot and critical-path share one. 3 distinct cluster configs total.
	clBuilds, _ := svc.BuildCounts()
	if clBuilds != 3 {
		t.Errorf("cluster builds = %d, want 3", clBuilds)
	}

	st := svc.schedules.Stats()
	if st.Misses != uint64(1+len(cold)) {
		t.Errorf("schedule cache misses = %d, want %d", st.Misses, 1+len(cold))
	}
	if st.Hits+st.Coalesced != uint64(hotN+coldN)-st.Misses {
		t.Errorf("hits(%d)+coalesced(%d) != served-without-build(%d)",
			st.Hits, st.Coalesced, uint64(hotN+coldN)-st.Misses)
	}
	if st.Coalesced == 0 {
		t.Error("no request coalesced despite builds held open for 100ms")
	}
}

func requestLabel(r ScheduleRequest) string {
	return fmt.Sprintf("%s/%s/w%d", r.Workload.Model, r.Workload.Policy, r.Workload.Workers)
}

// TestNewPanicsOnUnknownCachePolicy pins the documented New contract:
// options are resolved by callers first, so an unknown policy is a panic,
// not a silent default.
func TestNewPanicsOnUnknownCachePolicy(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted an unknown cache policy")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "astrology") {
			t.Fatalf("panic = %v, want the policy name in the message", r)
		}
	}()
	New(Options{CachePolicy: "astrology"})
}
