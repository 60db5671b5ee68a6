package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"tictac/internal/bench/engine"
)

// BatchRequest is the body of POST /v1/batch: one base workload plus a list
// of what-if variants expressed as deltas on it. The base workload uses the
// same envelope as /v1/schedule and /v1/simulate.
//
// The handler amortizes everything the variants share: the graph is parsed
// and digested exactly once, one sim.Runner per graph is reused across all
// variants, clusters and schedules resolve through the content-addressed
// caches so duplicate variants coalesce onto one computation, and variants
// fan out on a deterministic worker pool — results are bit-identical at any
// pool width.
type BatchRequest struct {
	// Workload is the base spec.
	Workload WorkloadSpec `json:"workload"`
	// Variants are the what-if deltas; each entry yields one result slot in
	// the response, in order. Must be non-empty.
	Variants []BatchVariant `json:"variants"`
}

// BatchVariant is one what-if delta on the base workload. Every field is
// optional; an absent field inherits the base value. Graph-shaping fields
// (model, workers, ps, batch_factor, iterations, shared_ps_nic, mode) are
// deliberately not variant-addressable — a batch amortizes exactly one
// graph, and a variant that needs a different graph is a different batch.
type BatchVariant struct {
	// Label names the variant in results and the ranked summary.
	Label string `json:"label,omitempty"`
	// Env swaps the base platform profile (envG|envC).
	Env *string `json:"env,omitempty"`
	// Overrides REPLACES the base overrides (it is not merged with them);
	// an explicit empty object {"devices":{}} clears back to homogeneous.
	Overrides *PlatformOverrides `json:"overrides,omitempty"`
	// Policy / Warmup select the scheduling policy under test.
	Policy *string `json:"policy,omitempty"`
	Warmup *int    `json:"warmup,omitempty"`
	// Seed / Jitter / ReorderProb / iteration counts retune the experiment.
	Seed              *int64   `json:"seed,omitempty"`
	WarmupIterations  *int     `json:"warmup_iterations,omitempty"`
	MeasureIterations *int     `json:"measure_iterations,omitempty"`
	Jitter            *float64 `json:"jitter,omitempty"`
	ReorderProb       *float64 `json:"reorder_prob,omitempty"`
	// Stragglers / Contention REPLACE the base windows when present
	// (an explicit empty list clears them).
	Stragglers *[]StragglerSpec  `json:"stragglers,omitempty"`
	Contention *[]ContentionSpec `json:"contention,omitempty"`
	// Membership REPLACES the base membership-event script when present
	// (an explicit empty list clears back to a static fleet).
	Membership *[]MembershipEventSpec `json:"membership,omitempty"`
}

// apply layers the variant's deltas over the base spec.
func (v BatchVariant) apply(base WorkloadSpec) WorkloadSpec {
	spec := base
	if v.Env != nil {
		spec.Env = *v.Env
	}
	if v.Overrides != nil {
		spec.Overrides = v.Overrides
	}
	if v.Policy != nil {
		spec.Policy = *v.Policy
	}
	if v.Warmup != nil {
		spec.Warmup = *v.Warmup
	}
	if v.Seed != nil {
		spec.Seed = *v.Seed
	}
	if v.WarmupIterations != nil {
		spec.WarmupIterations = *v.WarmupIterations
	}
	if v.MeasureIterations != nil {
		spec.MeasureIterations = *v.MeasureIterations
	}
	if v.Jitter != nil {
		spec.Jitter = v.Jitter
	}
	if v.ReorderProb != nil {
		spec.ReorderProb = *v.ReorderProb
	}
	if v.Stragglers != nil {
		spec.Stragglers = *v.Stragglers
	}
	if v.Contention != nil {
		spec.Contention = *v.Contention
	}
	if v.Membership != nil {
		spec.Membership = *v.Membership
	}
	return spec
}

// BatchVariantResult is one variant's slot in the response: either a result
// payload byte-identical to the individual /v1/simulate result for the same
// spec, or a per-variant structured error (an invalid variant never fails
// the batch).
type BatchVariantResult struct {
	Index  int             `json:"index"`
	Label  string          `json:"label,omitempty"`
	Error  *ErrorBody      `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchRank is one row of the ranked summary, ordered fastest first.
type BatchRank struct {
	Index        int     `json:"index"`
	Label        string  `json:"label,omitempty"`
	Policy       string  `json:"policy"`
	MeanMakespan float64 `json:"mean_makespan_seconds"`
	// DeltaVsBaselinePct is this variant's mean makespan relative to the
	// baseline variant (negative = faster than baseline).
	DeltaVsBaselinePct float64 `json:"delta_vs_baseline_pct"`
	SpeedupVsBaseline  float64 `json:"speedup_vs_baseline"`
}

// BatchScenario groups variants that share everything except the scheduling
// policy (same platform, seed, noise and windows) and names the winning
// policy — the capacity planner's "which policy wins under these
// conditions?" answer.
type BatchScenario struct {
	// Scenario is a stable name: the first grouped variant's label when it
	// has one, else "scenario-N" by first appearance.
	Scenario string `json:"scenario"`
	// Variants lists the member variant indices in request order.
	Variants []int `json:"variants"`
	// BestPolicy/BestIndex/BestMeanMakespan identify the fastest member
	// (ties break toward the earlier variant).
	BestPolicy       string  `json:"best_policy"`
	BestIndex        int     `json:"best_index"`
	BestMeanMakespan float64 `json:"best_mean_makespan_seconds"`
}

// BatchSummary is the ranked roll-up across the whole batch.
type BatchSummary struct {
	// Variants / Distinct / Failed count the request's variants, the
	// distinct computations after dedup, and the per-variant errors.
	Variants int `json:"variants"`
	Distinct int `json:"distinct"`
	Failed   int `json:"failed"`
	// BaselineIndex is the variant deltas are measured against: the first
	// variant that produced a result (-1 if none did).
	BaselineIndex int `json:"baseline_index"`
	// Ranking orders every successful variant fastest-first.
	Ranking []BatchRank `json:"ranking"`
	// Scenarios groups policy alternatives under identical conditions.
	Scenarios []BatchScenario `json:"scenarios"`
}

// BatchResponse is the body of POST /v1/batch. It carries no cached flags:
// which variant hits or misses a cache depends on execution order, and the
// batch response is bit-identical at any pool width by contract.
type BatchResponse struct {
	Variants []BatchVariantResult `json:"variants"`
	Summary  BatchSummary         `json:"summary"`
}

// batchSlot is the per-variant resolution outcome before execution.
type batchSlot struct {
	res  resolved
	uniq int // index into the deduped computation list
	err  error
}

// batchOut is one deduped computation's outcome; errors ride inside the
// value because engine.Map aborts the whole pool on a returned error and a
// failing variant must not take the batch down with it.
type batchOut struct {
	result  SimulateResult
	payload []byte
	err     error
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		return err
	}
	if len(req.Variants) == 0 {
		return badRequest("batch needs at least one variant")
	}
	if len(req.Variants) > s.opts.MaxBatch {
		return codeErr(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch carries %d variants; the cap is %d (-max-batch)", len(req.Variants), s.opts.MaxBatch)
	}
	baseRes, err := req.Workload.resolve()
	if err != nil {
		return err
	}
	// A batch routes on its base spec's key: variants must not change the
	// graph, so the whole batch shares the base workload's home node.
	if handled, err := s.maybeForward(w, r, body, baseRes); handled || err != nil {
		return err
	}
	// One graph parse/digest for the whole batch: build (or fetch) the base
	// cluster up front; every variant cluster derives from it.
	baseEntry, _, err := s.buildCluster(baseRes)
	if err != nil {
		return fmt.Errorf("cluster build: %w", err)
	}

	// Resolve each variant and dedupe identical ones onto one computation.
	slots := make([]batchSlot, len(req.Variants))
	var uniqs []resolved
	uniqBy := make(map[string]int)
	for i, v := range req.Variants {
		res, err := v.apply(req.Workload).resolve()
		if err != nil {
			slots[i].err = err
			continue
		}
		slots[i].res = res
		key := res.runKey()
		u, ok := uniqBy[key]
		if !ok {
			u = len(uniqs)
			uniqs = append(uniqs, res)
			uniqBy[key] = u
		}
		slots[i].uniq = u
	}

	// Fan the distinct computations out on the deterministic pool. Every
	// point is self-contained and errors travel inside the value, so the
	// output is a pure function of the request at any jobs width.
	outs, _ := engine.Map(s.opts.BatchJobs, len(uniqs), func(i int) (batchOut, error) {
		res := uniqs[i]
		ce, _, err := s.derivedCluster(baseEntry, res)
		if err != nil {
			return batchOut{err: err}, nil
		}
		e, _, err := s.scheduleFor(ce, res)
		if err != nil {
			return batchOut{err: err}, nil
		}
		result, err := computeSimulateResult(ce, e, res)
		if err != nil {
			return batchOut{err: err}, nil
		}
		payload, err := json.Marshal(result)
		if err != nil {
			return batchOut{err: err}, nil
		}
		return batchOut{result: result, payload: payload}, nil
	})

	resp := BatchResponse{
		Variants: make([]BatchVariantResult, len(req.Variants)),
		Summary: BatchSummary{
			Variants:      len(req.Variants),
			Distinct:      len(uniqs),
			BaselineIndex: -1,
		},
	}
	for i, slot := range slots {
		vr := BatchVariantResult{Index: i, Label: req.Variants[i].Label}
		err := slot.err
		if err == nil {
			out := outs[slot.uniq]
			if out.err != nil {
				err = out.err
			} else {
				vr.Result = out.payload
			}
		}
		if err != nil {
			_, body := errorBody(err)
			vr.Error = &body
			resp.Summary.Failed++
		}
		resp.Variants[i] = vr
	}
	s.summarize(&resp, slots, outs)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// summarize fills the ranked summary from the per-variant outcomes.
func (s *Service) summarize(resp *BatchResponse, slots []batchSlot, outs []batchOut) {
	ok := func(i int) bool {
		return slots[i].err == nil && outs[slots[i].uniq].err == nil
	}
	mean := func(i int) float64 { return outs[slots[i].uniq].result.MeanMakespan }

	// Ranking: every successful variant, fastest first (ties by index).
	baseline := -1
	for i := range slots {
		if ok(i) {
			baseline = i
			break
		}
	}
	resp.Summary.BaselineIndex = baseline
	if baseline < 0 {
		return
	}
	baseMean := mean(baseline)
	for i := range slots {
		if !ok(i) {
			continue
		}
		rank := BatchRank{
			Index:        i,
			Label:        resp.Variants[i].Label,
			Policy:       slots[i].res.policy,
			MeanMakespan: mean(i),
		}
		if baseMean > 0 {
			rank.DeltaVsBaselinePct = (rank.MeanMakespan - baseMean) / baseMean * 100
		}
		if rank.MeanMakespan > 0 {
			rank.SpeedupVsBaseline = baseMean / rank.MeanMakespan
		}
		resp.Summary.Ranking = append(resp.Summary.Ranking, rank)
	}
	sort.SliceStable(resp.Summary.Ranking, func(a, b int) bool {
		ra, rb := resp.Summary.Ranking[a], resp.Summary.Ranking[b]
		if ra.MeanMakespan != rb.MeanMakespan {
			return ra.MeanMakespan < rb.MeanMakespan
		}
		return ra.Index < rb.Index
	})

	// Scenarios: group successful variants by everything-but-policy, in
	// first-appearance order, and name the winner within each group.
	type group struct {
		sc  BatchScenario
		pos int
	}
	var order []string
	groups := make(map[string]*group)
	for i := range slots {
		if !ok(i) {
			continue
		}
		key := slots[i].res.scenarioKey()
		g, seen := groups[key]
		if !seen {
			name := resp.Variants[i].Label
			if name == "" {
				name = fmt.Sprintf("scenario-%d", len(order)+1)
			}
			g = &group{sc: BatchScenario{Scenario: name, BestIndex: -1}}
			groups[key] = g
			order = append(order, key)
		}
		g.sc.Variants = append(g.sc.Variants, i)
		if g.sc.BestIndex < 0 || mean(i) < g.sc.BestMeanMakespan {
			g.sc.BestIndex = i
			g.sc.BestPolicy = slots[i].res.policy
			g.sc.BestMeanMakespan = mean(i)
		}
	}
	for _, key := range order {
		resp.Summary.Scenarios = append(resp.Summary.Scenarios, groups[key].sc)
	}
}
