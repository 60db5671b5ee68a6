package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// churnEvents is the canonical mutation used across these tests: a worker
// dies mid-iteration, a PS shard fails, and the worker rejoins.
func churnEvents() []MembershipEventSpec {
	return []MembershipEventSpec{
		{Kind: "worker_fail", Worker: 1, Iteration: 1, FailPoint: 0.5},
		{Kind: "ps_shard_fail", PS: 0, Iteration: 2},
		{Kind: "worker_join", Worker: 1, Iteration: 3},
	}
}

// TestMembershipDigestDivergesCacheAndPayload pins the schedule-invalidation
// contract: the same workload with and without membership events must land
// in different cluster AND schedule cache slots, report different membership
// digests, and serve different bytes — a membership change can never be
// answered from the static fleet's cache entry.
func TestMembershipDigestDivergesCacheAndPayload(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	quiet := ScheduleRequest{Workload: WorkloadSpec{
		Model: "AlexNet v2", Policy: "tic", Workers: 4, PS: 2, Seed: 1, MeasureIterations: 4}}
	churn := quiet
	churn.Workload.Membership = churnEvents()

	resp, quietPayload := post(t, ts.URL+"/v1/schedule", quiet)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet status %d: %s", resp.StatusCode, quietPayload)
	}
	resp, churnPayload := post(t, ts.URL+"/v1/schedule", churn)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("churn status %d: %s", resp.StatusCode, churnPayload)
	}

	var quietRes, churnRes ScheduleResult
	if err := json.Unmarshal(compactResult(t, quietPayload), &quietRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(compactResult(t, churnPayload), &churnRes); err != nil {
		t.Fatal(err)
	}
	if quietRes.MembershipDigest != "" {
		t.Errorf("quiet membership digest = %q, want empty for a static fleet", quietRes.MembershipDigest)
	}
	if len(churnRes.MembershipDigest) != 64 {
		t.Errorf("churn membership digest = %q, want hex sha256", churnRes.MembershipDigest)
	}
	if bytes.Equal(compactResult(t, quietPayload), compactResult(t, churnPayload)) {
		t.Error("churn payload byte-identical to quiet payload")
	}

	// Both the cluster and schedule caches must have missed on the second
	// request: membership is part of both keys.
	clBuilds, schedBuilds := svc.BuildCounts()
	if clBuilds != 2 || schedBuilds != 2 {
		t.Errorf("cluster/schedule builds = %d/%d, want 2/2 (membership in both keys)", clBuilds, schedBuilds)
	}

	// Repeats of each hit their own slot with identical bytes.
	_, quiet2 := post(t, ts.URL+"/v1/schedule", quiet)
	_, churn2 := post(t, ts.URL+"/v1/schedule", churn)
	if !bytes.Equal(compactResult(t, quietPayload), compactResult(t, quiet2)) {
		t.Error("quiet repeat served different bytes")
	}
	if !bytes.Equal(compactResult(t, churnPayload), compactResult(t, churn2)) {
		t.Error("churn repeat served different bytes")
	}
	if clBuilds, schedBuilds := svc.BuildCounts(); clBuilds != 2 || schedBuilds != 2 {
		t.Errorf("repeats rebuilt: cluster/schedule builds = %d/%d, want 2/2", clBuilds, schedBuilds)
	}
}

// TestSimulateMembershipRecovery exercises the simulate path under churn:
// the run pays a visible recovery cost, reports the membership digest, and
// stays deterministic across identical requests.
func TestSimulateMembershipRecovery(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SimulateRequest{Workload: WorkloadSpec{
		Model: "AlexNet v2", Policy: "tic", Workers: 4, PS: 2, Seed: 1,
		MeasureIterations: 4, Membership: churnEvents()}}

	resp, payload := post(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	var sr struct {
		Result SimulateResult `json:"result"`
	}
	if err := json.Unmarshal(payload, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Result.RecoverySecondsTotal <= 0 {
		t.Errorf("recovery_seconds_total = %v, want > 0 for a mid-iteration worker fail",
			sr.Result.RecoverySecondsTotal)
	}
	if len(sr.Result.MembershipDigest) != 64 {
		t.Errorf("membership digest = %q, want hex sha256", sr.Result.MembershipDigest)
	}
	if sr.Result.MeanMakespan <= 0 {
		t.Errorf("mean makespan = %v, want > 0", sr.Result.MeanMakespan)
	}

	_, payload2 := post(t, ts.URL+"/v1/simulate", req)
	var a, b bytes.Buffer
	var r1, r2 struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(payload, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload2, &r2); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&a, r1.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, r2.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical churn simulate requests served different bytes")
	}
}

// TestMembershipValidation covers the structured rejections: schedules that
// reference departed workers get the dedicated code, malformed timelines
// get bad_request.
func TestMembershipValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		spec WorkloadSpec
		code string
	}{
		{"fail after leave", WorkloadSpec{Model: "AlexNet v2", Workers: 2,
			Membership: []MembershipEventSpec{
				{Kind: "worker_leave", Worker: 1, Iteration: 0},
				{Kind: "worker_fail", Worker: 1, Iteration: 1},
			}}, CodeDepartedWorker},
		{"straggler on departed worker", WorkloadSpec{Model: "AlexNet v2", Workers: 2,
			Membership: []MembershipEventSpec{{Kind: "worker_leave", Worker: 1, Iteration: 0}},
			Stragglers: []StragglerSpec{{Worker: 1, Factor: 2}}}, CodeDepartedWorker},
		{"unknown kind", WorkloadSpec{Model: "AlexNet v2", Workers: 2,
			Membership: []MembershipEventSpec{{Kind: "meteor", Worker: 1}}}, CodeBadRequest},
		{"worker out of range", WorkloadSpec{Model: "AlexNet v2", Workers: 2,
			Membership: []MembershipEventSpec{{Kind: "worker_leave", Worker: 7}}}, CodeBadRequest},
		{"last worker leaves", WorkloadSpec{Model: "AlexNet v2", Workers: 1,
			Membership: []MembershipEventSpec{{Kind: "worker_leave", Worker: 0}}}, CodeBadRequest},
	}
	for _, tc := range cases {
		resp, payload := post(t, ts.URL+"/v1/schedule", ScheduleRequest{Workload: tc.spec})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, payload)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil || e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, e.Error.Code, tc.code, payload)
		}
	}
}

// TestBatchMembershipVariant covers the batch path: a membership variant
// replaces the base timeline (riding the derived-cluster path when combined
// with overrides), an explicit empty list clears back to the static fleet,
// and every variant stays byte-identical to its /v1/simulate twin.
func TestBatchMembershipVariant(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	base := WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Workers: 4, PS: 2,
		Seed: 5, MeasureIterations: 4, Membership: churnEvents()}
	events := churnEvents()
	req := BatchRequest{
		Workload: base,
		Variants: []BatchVariant{
			{Label: "churn-base"},
			{Label: "static", Membership: &[]MembershipEventSpec{}},
			{Label: "churn-slow-w2", Membership: &events, Overrides: &PlatformOverrides{
				Devices: map[string]DeviceOverride{"worker:2": {SlowCompute: 2}},
			}},
		},
	}
	resp, payload, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	if len(br.Variants) != 3 {
		t.Fatalf("got %d variant results, want 3", len(br.Variants))
	}
	results := make([]SimulateResult, 3)
	for i, vr := range br.Variants {
		if vr.Error != nil {
			t.Fatalf("variant %d failed: %+v", i, vr.Error)
		}
		if err := json.Unmarshal(vr.Result, &results[i]); err != nil {
			t.Fatal(err)
		}
		// Byte-identity with the single-request twin.
		single := req.Variants[i].apply(base)
		sresp, spayload := post(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: single})
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("simulate twin %d: status %d: %s", i, sresp.StatusCode, spayload)
		}
		var sr struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(spayload, &sr); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := json.Compact(&a, vr.Result); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, sr.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("variant %d (%s) diverged from its /v1/simulate twin", i, vr.Label)
		}
	}
	if len(results[0].MembershipDigest) != 64 {
		t.Errorf("churn-base digest = %q, want hex sha256 (base membership inherited)", results[0].MembershipDigest)
	}
	if results[1].MembershipDigest != "" {
		t.Errorf("static variant digest = %q, want empty (explicit [] clears the timeline)", results[1].MembershipDigest)
	}
	if results[2].MembershipDigest != results[0].MembershipDigest {
		t.Errorf("override variant digest %q != base churn digest %q (same timeline)",
			results[2].MembershipDigest, results[0].MembershipDigest)
	}
	if results[2].ScheduleDigest == results[0].ScheduleDigest &&
		results[2].MeanMakespan == results[0].MeanMakespan {
		t.Error("derived-platform churn variant identical to base churn variant")
	}
	if results[1].RecoverySecondsTotal != 0 {
		t.Errorf("static variant recovery = %v, want 0", results[1].RecoverySecondsTotal)
	}
	if results[0].RecoverySecondsTotal <= 0 {
		t.Errorf("churn-base recovery = %v, want > 0", results[0].RecoverySecondsTotal)
	}
	// Membership variants must not break batch amortization: one graph
	// parse serves all three (platform, membership) combinations, with the
	// derived ones landing in their own cache slots via WithPlatforms.
	if clBuilds, _ := svc.BuildCounts(); clBuilds != 1 {
		t.Errorf("cluster builds = %d, want 1 (membership variants derive, not rebuild)", clBuilds)
	}
}
