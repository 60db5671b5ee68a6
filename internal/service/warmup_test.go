package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// scheduleResultBytes posts spec to /v1/schedule and returns the result
// payload.
func scheduleResultBytes(t *testing.T, url string, spec WorkloadSpec) []byte {
	t.Helper()
	resp, payload := post(t, url+"/v1/schedule", ScheduleRequest{Workload: &spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Result
}

// TestWarmupSplitsOnlyOracleSlots requires two requests that differ only
// in warmup to share one schedule slot and one batch computation under a
// policy that never reads warmup, and to keep separate slots under tac,
// whose traced warmup it sizes.
func TestWarmupSplitsOnlyOracleSlots(t *testing.T) {
	for _, tc := range []struct {
		policy string
		builds uint64
	}{{"tic", 1}, {"none", 1}, {"tac", 2}} {
		svc, ts := newTestServer(t, Options{})
		spec := WorkloadSpec{Model: "AlexNet v2", Workers: 2, Policy: tc.policy}
		a := scheduleResultBytes(t, ts.URL, spec)
		spec.Warmup = 3
		b := scheduleResultBytes(t, ts.URL, spec)
		if _, builds := svc.BuildCounts(); builds != tc.builds {
			t.Errorf("%s: warmup 0 and 3 cost %d schedule builds, want %d", tc.policy, builds, tc.builds)
		}
		if tc.builds == 1 && !bytes.Equal(a, b) {
			t.Errorf("%s: warmup 0 and 3 returned different results", tc.policy)
		}

		base := WorkloadSpec{Model: "AlexNet v2", Workers: 2, Policy: tc.policy, MeasureIterations: 2}
		zero, three := 0, 3
		resp, payload, br := postBatch(t, ts.URL, BatchRequest{
			Workload: &base,
			Variants: []BatchVariant{{Warmup: &zero}, {Warmup: &three}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch status %d: %s", tc.policy, resp.StatusCode, payload)
		}
		if want := int(tc.builds); br.Summary.Distinct != want {
			t.Errorf("%s: batch variants differing only in warmup: distinct %d, want %d", tc.policy, br.Summary.Distinct, want)
		}
	}
}
