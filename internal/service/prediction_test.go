package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// serveSchedule posts spec to /v1/schedule through h in process and returns
// the status and the compacted result, or the raw body when the status is
// not 200 or the body does not decode.
func serveSchedule(h http.Handler, spec WorkloadSpec) (int, []byte) {
	body, err := json.Marshal(ScheduleRequest{Workload: spec})
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	var resp ScheduleResponse
	var buf bytes.Buffer
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || json.Compact(&buf, resp.Result) != nil {
		return rec.Code, rec.Body.Bytes()
	}
	return rec.Code, buf.Bytes()
}

// TestPredictionsCountSimulatedBuilds pins builds.predictions. Twelve seeds
// of AlexNet v2 at 2×1 under tic make twelve schedule builds, and only the
// first simulates its jitter-0 iteration: that iteration is seed-free, so
// the other eleven take its makespan. Inception v1's iteration still picks
// at random, so each of its twelve builds simulates. Every payload equals
// the direct computation on a fresh cluster.
func TestPredictionsCountSimulatedBuilds(t *testing.T) {
	for _, tc := range []struct {
		model       string
		predictions uint64
	}{
		{"AlexNet v2", 1},
		{"Inception v1", 12},
	} {
		svc := New(Options{})
		h := svc.Handler()
		for seed := int64(1); seed <= 12; seed++ {
			spec := WorkloadSpec{Model: tc.model, Policy: "tic", Workers: 2, PS: 1, Seed: seed}
			status, got := serveSchedule(h, spec)
			if status != http.StatusOK {
				t.Fatalf("%s seed %d: status %d: %s", tc.model, seed, status, got)
			}
			if want := directSchedulePayload(t, spec); !bytes.Equal(got, want) {
				t.Errorf("%s seed %d: served result differs from a fresh cluster's:\n got %s\nwant %s", tc.model, seed, got, want)
			}
		}
		b := svc.Metrics().Builds
		if b.Schedules != 12 || b.Predictions != tc.predictions {
			t.Errorf("%s: builds.schedules %d, builds.predictions %d; want 12 and %d",
				tc.model, b.Schedules, b.Predictions, tc.predictions)
		}
	}
}

// TestConcurrentSeedsShareOnePrediction serves eight seeds of one cluster
// under tic and under none from concurrent goroutines, each seed twice, on
// a schedule cache too small to hold them, so that builds race to fill and
// read one prediction memo. Every result must equal the memo-free direct
// computation for its seed. Run it under -race.
func TestConcurrentSeedsShareOnePrediction(t *testing.T) {
	const seeds = 8
	policies := []string{"tic", "none"}
	specs := make([]WorkloadSpec, 0, len(policies)*seeds)
	for _, policy := range policies {
		for seed := int64(1); seed <= seeds; seed++ {
			specs = append(specs, WorkloadSpec{Model: "AlexNet v2", Policy: policy, Workers: 2, PS: 1, Seed: seed})
		}
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = directSchedulePayload(t, spec)
	}
	svc := New(Options{CacheCapacity: 4})
	h := svc.Handler()
	const rounds = 2
	got := make([][]byte, rounds*len(specs))
	status := make([]int, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status[i], got[i] = serveSchedule(h, specs[i%len(specs)])
		}(i)
	}
	wg.Wait()
	for i := range got {
		spec := specs[i%len(specs)]
		if status[i] != http.StatusOK {
			t.Fatalf("%s seed %d: status %d: %s", spec.Policy, spec.Seed, status[i], got[i])
		}
		if !bytes.Equal(got[i], want[i%len(specs)]) {
			t.Errorf("%s seed %d: served result differs from a fresh cluster's:\n got %s\nwant %s",
				spec.Policy, spec.Seed, got[i], want[i%len(specs)])
		}
	}
	if b := svc.Metrics().Builds; b.Predictions < 1 || b.Predictions > b.Schedules {
		t.Errorf("builds.predictions %d, builds.schedules %d; want 1 ≤ predictions ≤ schedules", b.Predictions, b.Schedules)
	}
}
