package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Finite but extreme inputs that overflow simulated times to ±Inf: a
// straggler slowed by a factor near the float64 maximum, and a channel
// whose bandwidth is subnormal.
const (
	overflowStraggler = `{"workload": {"model": "AlexNet v2", "workers": 2, "stragglers": [{"worker": 1, "factor": 1e308}]}}`
	overflowBandwidth = `{"workload": {"model": "AlexNet v2", "workers": 2, "overrides": {"channels": {"worker:0/net:ps:0": {"bandwidth": 1e-320}}}}}`
	overflowBatch     = `{"workload": {"model": "AlexNet v2", "workers": 2, "measure_iterations": 2}, "variants": [{}, {"stragglers": [{"worker": 1, "factor": 1e308}]}]}`
)

// TestOverflowingInputsAreBadRequests requires inputs that push a reported
// number past float64 to get the structured 400, never an empty 200 or a
// 500: the numbers are the request's, and JSON cannot carry ±Inf.
func TestOverflowingInputsAreBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", overflowStraggler},
		{"/v1/schedule", overflowBandwidth},
		{"/v1/simulate", overflowBandwidth},
	} {
		resp, payload := post(t, ts.URL+tc.path, json.RawMessage(tc.body))
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatalf("%s %s: body is not JSON (%v): %q", tc.path, tc.body, err, payload)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
			t.Errorf("%s %s: got %d/%s (%s), want 400/%s",
				tc.path, tc.body, resp.StatusCode, e.Error.Code, e.Error.Message, CodeBadRequest)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.path, ct)
		}
	}

	resp, payload := post(t, ts.URL+"/v1/batch", json.RawMessage(overflowBatch))
	var br BatchResponse
	if err := json.Unmarshal(payload, &br); err != nil {
		t.Fatalf("batch body is not JSON (%v): %q", err, payload)
	}
	if resp.StatusCode != http.StatusOK || len(br.Variants) != 2 {
		t.Fatalf("batch: got %d with %d variants: %s", resp.StatusCode, len(br.Variants), payload)
	}
	if br.Variants[0].Error != nil {
		t.Errorf("healthy variant failed: %+v", br.Variants[0].Error)
	}
	if bad := br.Variants[1]; bad.Error == nil || bad.Error.Code != CodeBadRequest || bad.Result != nil {
		t.Errorf("overflowing variant = %+v, want a %s error and no result", bad, CodeBadRequest)
	}
}

// TestOversizedBatchFactorIsBadRequest requires a batch_factor whose
// effective batch is above cluster.MaxBatch to get the structured 400 on
// every endpoint, never a 200 built from wrapped FLOPs or a rounded-down
// batch, nor a 500 from the simulator.
func TestOversizedBatchFactorIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, factor := range []string{"3e8", "1e9", "1e11", "1e12", "1e18", "1e300"} {
		spec := `{"model": "AlexNet v2", "batch_factor": ` + factor + `}`
		for _, tc := range []struct{ path, body string }{
			{"/v1/schedule", `{"workload": ` + spec + `}`},
			{"/v1/simulate", `{"workload": ` + spec + `}`},
			{"/v1/batch", `{"workload": ` + spec + `, "variants": [{}]}`},
		} {
			resp, payload := post(t, ts.URL+tc.path, json.RawMessage(tc.body))
			var e ErrorResponse
			if err := json.Unmarshal(payload, &e); err != nil {
				t.Fatalf("%s %s: body is not JSON (%v): %q", tc.path, tc.body, err, payload)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest ||
				!strings.Contains(e.Error.Message, "batch_factor") {
				t.Errorf("%s batch_factor %s: got %d/%s (%s), want 400/%s naming batch_factor",
					tc.path, factor, resp.StatusCode, e.Error.Code, e.Error.Message, CodeBadRequest)
			}
		}
	}
}

// TestWriteJSONEncodeFailure requires a value the encoder refuses to
// become the structured 500, with nothing written before it, and every
// other value to keep the indented encoder's exact bytes.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body is not the error envelope (%v): %q", err, rec.Body.Bytes())
	}
	if rec.Code != http.StatusInternalServerError || e.Error.Code != CodeInternal ||
		!strings.Contains(e.Error.Message, "unsupported value") {
		t.Errorf("got %d %+v, want 500 %s naming the encode error", rec.Code, e.Error, CodeInternal)
	}

	v := PoliciesResponse{Policies: []string{"tic", "<tac>"}, Baseline: "none"}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, v)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusAccepted || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Errorf("got %d %q, want %d %q", rec.Code, rec.Body.Bytes(), http.StatusAccepted, want.Bytes())
	}
}
