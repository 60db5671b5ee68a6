package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"

	"tictac/internal/service"
	"tictac/internal/trace"
)

// Probe counts per run. Batch and churn probes are interleaved into the
// load; the error probes run after it.
const (
	batchProbes = 4
	churnProbes = 2
)

// Probes is a curve's probe section.
type Probes struct {
	// Batch probes: requests fired, variants compared with their
	// /v1/simulate twins, variants that differed, requests that failed.
	BatchRequests   int `json:"batch_requests"`
	BatchVariants   int `json:"batch_variants"`
	BatchMismatches int `json:"batch_mismatches"`
	BatchFailures   int `json:"batch_failures"`
	// Churn probes: ChurnStale counts responses that did not match the
	// reference around a membership change; ChurnFailures are probes that
	// could not run.
	ChurnProbes   int `json:"churn_probes"`
	ChurnStale    int `json:"churn_stale"`
	ChurnFailures int `json:"churn_failures"`
	// Error probes: count run, and what came back wrong.
	ErrorChecks        int      `json:"error_checks"`
	ErrorCheckFailures []string `json:"error_check_failures,omitempty"`
}

func (p *Probes) err() error {
	switch {
	case p == nil:
		return nil
	case p.BatchFailures > 0:
		return fmt.Errorf("%d/%d batch requests failed", p.BatchFailures, p.BatchRequests)
	case p.BatchMismatches > 0:
		return fmt.Errorf("%d batch variants diverged from their /v1/simulate twin", p.BatchMismatches)
	case p.ChurnFailures > 0:
		return fmt.Errorf("%d/%d churn probes failed", p.ChurnFailures, p.ChurnProbes)
	case p.ChurnStale > 0:
		return fmt.Errorf("%d stale responses served across a membership change", p.ChurnStale)
	case len(p.ErrorCheckFailures) > 0:
		return fmt.Errorf("%d/%d error probes failed: %s", len(p.ErrorCheckFailures), p.ErrorChecks, strings.Join(p.ErrorCheckFailures, "; "))
	}
	return nil
}

// prober runs the probes of one curve. They request the trace's first
// model and seed under its scheduling policies, in order of appearance.
type prober struct {
	model    string
	policies []string
	seed     int64

	mu  sync.Mutex
	rep Probes
}

func newProber(w *trace.Workload) *prober {
	p := &prober{model: w.Events[0].Model, seed: w.Events[0].Seed}
	for _, e := range w.Events {
		if !slices.Contains(p.policies, e.Policy) {
			p.policies = append(p.policies, e.Policy)
		}
	}
	return p
}

// run executes interleaved probe k and records its outcome.
func (p *prober) run(d *dialer, ref *verifier, k int) {
	if k < batchProbes {
		vars, miss, err := p.batch(d, k)
		p.mu.Lock()
		p.rep.BatchRequests++
		p.rep.BatchVariants += vars
		p.rep.BatchMismatches += miss
		if err != nil {
			p.rep.BatchFailures++
		}
		p.mu.Unlock()
		return
	}
	stale, err := p.churn(d, ref, k-batchProbes)
	p.mu.Lock()
	p.rep.ChurnProbes++
	p.rep.ChurnStale += stale
	if err != nil {
		p.rep.ChurnFailures++
	}
	p.mu.Unlock()
}

// batch fires probe b's /v1/batch request — a sweep over the policies, a
// duplicate of the first variant (which the server coalesces) and a
// straggler scenario — and compares every variant's result with the
// answer to the same spec sent alone to /v1/simulate.
func (p *prober) batch(d *dialer, b int) (vars, mismatches int, err error) {
	base := service.WorkloadSpec{Model: p.model, Workers: 2, PS: 1, Seed: p.seed + int64(b), MeasureIterations: 4}
	var variants []service.BatchVariant
	for i := range p.policies {
		variants = append(variants, service.BatchVariant{Label: "policy-" + p.policies[i], Policy: &p.policies[i]})
	}
	stragglers := []service.StragglerSpec{{Worker: 0, Factor: 2.5, From: 1, Until: 3}}
	variants = append(variants, variants[0],
		service.BatchVariant{Label: "straggler", Policy: &p.policies[0], Stragglers: &stragglers})

	status, payload, err := d.do(http.MethodPost, pathBatch, marshal(service.BatchRequest{Workload: &base, Variants: variants}))
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("batch status %d: %s", status, payload)
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return 0, 0, err
	}
	if len(resp.Variants) != len(variants) {
		return 0, 0, fmt.Errorf("batch returned %d variants for %d", len(resp.Variants), len(variants))
	}
	for i, vr := range resp.Variants {
		if vr.Error != nil {
			return vars, mismatches, fmt.Errorf("variant %d: %s: %s", i, vr.Error.Code, vr.Error.Message)
		}
		twin := base
		twin.Policy = *variants[i].Policy
		if s := variants[i].Stragglers; s != nil {
			twin.Stragglers = *s
		}
		want, _, err := d.result(pathSimulate, marshal(service.SimulateRequest{Workload: &twin}))
		if err != nil {
			return vars, mismatches, err
		}
		got, err := compact(vr.Result)
		if err != nil {
			return vars, mismatches, err
		}
		vars++
		if !bytes.Equal(got, want) {
			mismatches++
		}
	}
	return vars, mismatches, nil
}

// churn holds the server to the schedule-invalidation contract. Probe k
// simulates one workload quiet and again with a worker failing mid-run, a
// PS shard failing and the worker rejoining; it warms the quiet slot,
// sends the churned workload, then both again. A response that differs
// from the reference in either direction — the churned request served the
// quiet schedule, or the quiet request served the churned one — is stale.
func (p *prober) churn(d *dialer, ref *verifier, k int) (stale int, err error) {
	quiet := service.WorkloadSpec{
		Model: p.model, Policy: p.policies[0], Workers: 4, PS: 2, Seed: p.seed + 97*int64(k), MeasureIterations: 4,
	}
	churned := quiet
	w := 1 + k%3
	churned.Membership = []service.MembershipEventSpec{
		{Kind: "worker_fail", Worker: w, Iteration: 1},
		{Kind: "ps_shard_fail", PS: k % 2, Iteration: 2},
		{Kind: "worker_join", Worker: w, Iteration: 3},
	}
	bodies := [2][]byte{marshal(service.SimulateRequest{Workload: &quiet}), marshal(service.SimulateRequest{Workload: &churned})}
	var wants [2][]byte
	var digests [2]string
	for i, body := range bodies {
		if wants[i], err = ref.want(pathSimulate, body); err != nil {
			return 0, fmt.Errorf("churn probe: %w", err)
		}
		var r service.SimulateResult
		if err := json.Unmarshal(wants[i], &r); err != nil {
			return 0, fmt.Errorf("churn probe: %w", err)
		}
		digests[i] = r.MembershipDigest
	}
	if digests[0] == digests[1] {
		return 0, fmt.Errorf("churn probe: membership digest did not diverge")
	}
	if bytes.Equal(wants[0], wants[1]) {
		return 0, fmt.Errorf("churn probe: churn payload identical to quiet payload")
	}
	for _, i := range []int{0, 1, 0, 1} {
		got, _, err := d.result(pathSimulate, bodies[i])
		if err != nil {
			return stale, err
		}
		if !bytes.Equal(got, wants[i]) {
			stale++
		}
	}
	return stale, nil
}

// checkErrors fires deliberately broken requests and checks that each comes
// back with its documented status and structured error code.
func (p *prober) checkErrors(d *dialer) {
	expect := func(name string, wantStatus int, wantCode string, status int, payload []byte, err error) {
		p.rep.ErrorChecks++
		var er service.ErrorResponse
		switch {
		case err != nil:
			p.rep.ErrorCheckFailures = append(p.rep.ErrorCheckFailures, fmt.Sprintf("%s: %v", name, err))
		case json.Unmarshal(payload, &er) != nil:
			p.rep.ErrorCheckFailures = append(p.rep.ErrorCheckFailures, fmt.Sprintf("%s: non-envelope error body %q", name, payload))
		case status != wantStatus || er.Error.Code != wantCode:
			p.rep.ErrorCheckFailures = append(p.rep.ErrorCheckFailures,
				fmt.Sprintf("%s: got %d/%s, want %d/%s", name, status, er.Error.Code, wantStatus, wantCode))
		}
	}
	post := func(path string, spec service.WorkloadSpec) (int, []byte, error) {
		return d.do(http.MethodPost, path, marshal(service.ScheduleRequest{Workload: &spec}))
	}
	m := p.model

	st, body, err := post(pathSchedule, service.WorkloadSpec{Model: "NoSuchNet"})
	expect("unknown model", http.StatusBadRequest, service.CodeUnknownModel, st, body, err)

	st, body, err = post(pathSimulate, service.WorkloadSpec{Model: m, Policy: "astrology"})
	expect("unknown policy", http.StatusBadRequest, service.CodeUnknownPolicy, st, body, err)

	st, body, err = d.do(http.MethodPost, pathSchedule, []byte(`{"workload": `))
	expect("malformed JSON", http.StatusBadRequest, service.CodeBadRequest, st, body, err)

	st, body, err = d.do(http.MethodGet, pathSchedule, nil)
	expect("wrong method", http.StatusMethodNotAllowed, service.CodeMethodNotAllowed, st, body, err)

	st, body, err = d.do(http.MethodGet, "/v1/nope", nil)
	expect("unknown path", http.StatusNotFound, service.CodeNotFound, st, body, err)

	st, body, err = d.do(http.MethodPost, pathBatch, marshal(service.BatchRequest{Workload: &service.WorkloadSpec{Model: m}}))
	expect("empty batch", http.StatusBadRequest, service.CodeBadRequest, st, body, err)

	st, body, err = post(pathSchedule, service.WorkloadSpec{Model: m, Workers: 2, Membership: []service.MembershipEventSpec{
		{Kind: "worker_leave", Worker: 1, Iteration: 0},
		{Kind: "worker_fail", Worker: 1, Iteration: 1},
	}})
	expect("departed worker", http.StatusBadRequest, service.CodeDepartedWorker, st, body, err)

	st, body, err = post(pathSimulate, service.WorkloadSpec{Model: m, Workers: 2,
		Membership: []service.MembershipEventSpec{{Kind: "worker_leave", Worker: 1, Iteration: 0}},
		Stragglers: []service.StragglerSpec{{Worker: 1, Factor: 2}}})
	expect("straggler on departed worker", http.StatusBadRequest, service.CodeDepartedWorker, st, body, err)

	st, body, err = post(pathSchedule, service.WorkloadSpec{Model: m, Workers: 2,
		Membership: []service.MembershipEventSpec{{Kind: "meteor", Worker: 1}}})
	expect("unknown membership kind", http.StatusBadRequest, service.CodeBadRequest, st, body, err)

	over := service.BatchRequest{Workload: &service.WorkloadSpec{Model: m}, Variants: make([]service.BatchVariant, service.DefaultMaxBatch+1)}
	st, body, err = d.do(http.MethodPost, pathBatch, marshal(over))
	expect("oversized batch", http.StatusRequestEntityTooLarge, service.CodeBatchTooLarge, st, body, err)
}
