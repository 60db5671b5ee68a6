package service

import (
	"encoding/json"
	"errors"
	"testing"
)

// resolveBody is the request resolver every POST endpoint runs first:
// strict decode of the envelope, then WorkloadSpec.resolve.
func resolveBody(body []byte) (resolved, error) {
	var req ScheduleRequest
	if err := decodeStrict(body, &req); err != nil {
		return resolved{}, err
	}
	return req.Workload.resolve()
}

// FuzzWorkloadSpecResolve feeds arbitrary bodies to the request resolver.
// It must never panic; every rejection must be a coded client error from
// the documented manifest; and an accepted spec, re-encoded in the
// envelope and resolved again, must land on the same cache and dedup keys —
// one semantic request, one slot, however it was phrased. So must the
// spec with batch_factor 0 and 1 swapped and iterations 0 and 1 swapped,
// which build the same graph.
func FuzzWorkloadSpecResolve(f *testing.F) {
	seeds := []string{
		// Request bodies of the service tests.
		`{}`,
		`{"workload": {"model": "NoSuchNet"}}`,
		`{"workload": {"model": "AlexNet v2", "policy": "quantum"}}`,
		`{"workload": {"model": "AlexNet v2", "mode": "dreaming"}}`,
		`{"workload": {"model": "AlexNet v2", "env": "envZ"}}`,
		`{"workload": {"model": "AlexNet v2", "workers": -1}}`,
		`{"workload": {"model": "AlexNet v2", "workers": 10000}}`,
		`{"workload": {"model": "AlexNet v2", "wrokers": 2}}`,
		`{"workload": {"model": `,
		`{"workload": {"model": "AlexNet v2"}, "model": "AlexNet v2"}`,
		`{"workload": {"model": "AlexNet v2", "overrides": {"devices": {"worker:99": {"slow_compute": 2}}}}}`,
		`{"workload": {"model": "AlexNet v2", "policy": "tic", "workers": 2, "ps": 1, "seed": 3}}`,
		`{"workload": {"model": "AlexNet v2", "workers": 2, "measure_iterations": 3, "jitter": 0.05, "seed": 9}}`,
		trailingGarbage,
		trailingRequest,
		`{"workload": {"model": "AlexNet v2", "policy": "tic", "seed": 1, "batch_factor": 1, "iterations": 1}}`,
		`{"workload": {"model": "AlexNet v2", "policy": "tac", "workers": 2, "iterations": 2, "warmup": 3}}`,
		`{"workload": {"model": "AlexNet v2", "policy": "tic", "workers": 4, "ps": 2, "seed": 5, "measure_iterations": 4,
			"membership": [{"kind": "worker_fail", "worker": 1, "iteration": 1, "fail_point": 0.5},
				{"kind": "ps_shard_fail", "ps": 0, "iteration": 2}, {"kind": "worker_join", "worker": 1, "iteration": 3}]}}`,
		`{"workload": {"model": "AlexNet v2", "workers": 2, "membership": [{"kind": "worker_leave", "worker": 1}],
			"stragglers": [{"worker": 1, "factor": 2}]}}`,
		`{"workload": {"model": "AlexNet v2", "workers": 2, "membership": [{"kind": "meteor", "worker": 1}]}}`,
		`{"workload": {"model": "Inception v1", "mode": "inference", "env": "envC", "workers": 3, "ps": 2, "shared_ps_nic": true,
			"overrides": {"devices": {"worker:2": {"slow_compute": 2, "slow_net": 0.5}}, "channels": {"ps:1/net": {"latency": 0.001}}},
			"stragglers": [{"worker": 2, "factor": 3, "from": 1, "until": 4}], "contention": [{"factor": 1.5, "from": 2}],
			"reorder_prob": 0.05, "jitter": 0, "warmup_iterations": 1, "measure_iterations": 2}}`,
		// Finite inputs that overflow the simulation.
		overflowStraggler,
		overflowBandwidth,
		// Negative zeros, which re-encode as omitted fields.
		`{"workload": {"model": "AlexNet v2", "batch_factor": -0, "reorder_prob": -0, "jitter": -0}}`,
		`{"workload": {"model": "AlexNet v2", "workers": 2, "overrides": {"channels": {"worker:0/net:ps:0": {"bandwidth": -0, "latency": -0}}}}}`,
		`{"workload": {"model": "AlexNet v2", "workers": 2, "membership": [{"kind": "worker_fail", "worker": 1, "fail_point": -0, "degraded_factor": -0}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := resolveBody(body)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("rejection is not a coded error: %v", err)
			}
			if ae.status < 400 || ae.status > 499 || !documentedErrorCodes[ae.code] {
				t.Fatalf("rejection %d %q is not a documented client error: %v", ae.status, ae.code, err)
			}
			return
		}
		again, err := json.Marshal(ScheduleRequest{Workload: res.spec})
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		res2, err := resolveBody(again)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, again)
		}
		if res2.key != res.key {
			t.Fatalf("cluster key changed across re-encoding:\n%+v\n%+v\n%s", res.key, res2.key, again)
		}
		if res2.runKey() != res.runKey() {
			t.Fatalf("run key changed across re-encoding:\n%s\n%s\n%s", res.runKey(), res2.runKey(), again)
		}
		alt := res.spec
		switch alt.BatchFactor {
		case 0:
			alt.BatchFactor = 1
		case 1:
			alt.BatchFactor = 0
		}
		switch alt.Iterations {
		case 0:
			alt.Iterations = 1
		case 1:
			alt.Iterations = 0
		}
		swapped, err := json.Marshal(ScheduleRequest{Workload: alt})
		if err != nil {
			t.Fatalf("swapped spec does not encode: %v", err)
		}
		res3, err := resolveBody(swapped)
		if err != nil {
			t.Fatalf("spec with batch_factor/iterations 0 and 1 swapped rejected: %v\n%s", err, swapped)
		}
		if res3.key != res.key || res3.fleetKey() != res.fleetKey() {
			t.Fatalf("cluster key changed with batch_factor/iterations 0 and 1 swapped:\n%+v\n%+v\n%s", res.key, res3.key, swapped)
		}
	})
}
