package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"tictac/internal/cache"
	"tictac/internal/cluster"
	"tictac/internal/sched"
	"tictac/internal/stats"
)

// maxBodyBytes bounds request bodies; schedule/simulate requests are a few
// hundred bytes of JSON and even a maximal batch fits comfortably, so 1 MiB
// is generous without inviting abuse.
const maxBodyBytes = 1 << 20

// endpointMetrics instruments one endpoint.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      *stats.LatencyRecorder
}

// Handler returns the service's HTTP handler. Routes are registered by path
// only; instrument enforces the method so that a wrong verb yields the
// structured 405 envelope (with an Allow header) instead of the mux's
// plain-text default, and unknown paths yield the structured 404.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.instrument("schedule", http.MethodPost, s.handleSchedule))
	mux.HandleFunc("/v1/simulate", s.instrument("simulate", http.MethodPost, s.handleSimulate))
	mux.HandleFunc("/v1/batch", s.instrument("batch", http.MethodPost, s.handleBatch))
	mux.HandleFunc("/v1/policies", s.instrument("policies", http.MethodGet, s.handlePolicies))
	mux.HandleFunc("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("metrics", http.MethodGet, s.handleMetrics))
	if s.fleet != nil {
		mux.HandleFunc("/v1/fleet", s.instrument("fleet", http.MethodGet, s.handleFleet))
		mux.HandleFunc("/v1/fleet/warm", s.instrument("warm", http.MethodPost, s.handleWarm))
		mux.HandleFunc("/v1/drain", s.instrument("drain", http.MethodPost, s.handleDrain))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, codeErr(http.StatusNotFound, CodeNotFound, "unknown path %q", r.URL.Path))
	})
	return mux
}

// instrument wraps a handler with method enforcement, request counting,
// latency recording and uniform JSON error rendering.
func (s *Service) instrument(name, method string, fn func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	m := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		err := func() error {
			if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
				w.Header().Set("Allow", method)
				return codeErr(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
					"method %s not allowed on %s (use %s)", r.Method, r.URL.Path, method)
			}
			return fn(w, r)
		}()
		m.lat.Observe(time.Since(start).Seconds())
		if err == nil {
			return
		}
		m.errors.Add(1)
		writeError(w, err)
	}
}

// writeJSON encodes v before anything is sent, so a value the encoder
// refuses becomes the structured 500 instead of a status line with an
// empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(ErrorResponse{Error: ErrorBody{Code: CodeInternal, Message: "encoding response: " + err.Error()}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // headers are out; nothing useful to do on a write error
}

// readBody reads the whole request body (the fleet forwarding path needs
// the raw bytes to relay verbatim). Bodies over the 1 MiB cap are a 413
// payload_too_large.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, codeErr(http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return nil, badRequest("reading request body: %v", err)
	}
	return body, nil
}

// decodeStrict strictly decodes a JSON body into v; anything the decoder
// rejects (syntax, unknown fields) and anything but white space after the
// one JSON value is a 400 bad_request.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("invalid request body: trailing data after the request object")
	}
	return nil
}

// decodeBody strictly decodes a JSON request body into v. Bodies over the
// 1 MiB cap are a 413 payload_too_large; anything else the decoder rejects
// (syntax, unknown fields) is a 400 bad_request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(body, v)
}

// ScheduleResponse is the body of POST /v1/schedule. Result is served from
// the cache's canonical payload bytes, so identical requests receive
// byte-identical results whether they hit, miss or coalesce.
type ScheduleResponse struct {
	// Cached reports whether this response was served entirely from cache
	// (no cluster or schedule build ran or was waited on).
	Cached bool `json:"cached"`
	// Result is the deterministic schedule payload (see ScheduleResult).
	Result json.RawMessage `json:"result"`
}

func (s *Service) handleSchedule(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	var req ScheduleRequest
	if err := decodeStrict(body, &req); err != nil {
		return err
	}
	res, err := req.Workload.resolve()
	if err != nil {
		return err
	}
	if handled, err := s.maybeForward(w, r, body, res); handled || err != nil {
		return err
	}
	e, _, cached, err := s.schedule(res)
	if err != nil {
		return fmt.Errorf("schedule build: %w", err)
	}
	// Hot path: the result payload was marshaled once at build time; frame
	// it with plain writes instead of re-encoding multi-KB order/rank JSON
	// on every cache hit.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	prefix := `{"cached":false,"result":`
	if cached {
		prefix = `{"cached":true,"result":`
	}
	w.Write([]byte(prefix))
	w.Write(e.payload)
	w.Write([]byte("}\n"))
	return nil
}

// SimulateResult is the deterministic payload of a simulate response (and,
// variant by variant, of a batch response).
type SimulateResult struct {
	ResultHeader

	WarmupIterations  int `json:"warmup_iterations"`
	MeasureIterations int `json:"measure_iterations"`

	MeanMakespan   float64 `json:"mean_makespan_seconds"`
	MeanThroughput float64 `json:"mean_throughput_samples_per_second"`
	// RecoverySecondsTotal is the membership-event recovery overhead
	// (lost work, shard reloads) summed over the measured iterations; it
	// is already included in the makespans.
	RecoverySecondsTotal float64   `json:"recovery_seconds_total"`
	MaxStragglerPct      float64   `json:"max_straggler_pct"`
	MeanEfficiency       float64   `json:"mean_efficiency"`
	MinEfficiency        float64   `json:"min_efficiency"`
	UniqueRecvOrders     int       `json:"unique_recv_orders"`
	ReorderEvents        int       `json:"reorder_events"`
	Makespans            []float64 `json:"makespans_seconds"`
}

// SimulateResponse is the body of POST /v1/simulate.
type SimulateResponse struct {
	Cached bool           `json:"cached"`
	Result SimulateResult `json:"result"`
}

// computeSimulateResult runs the experiment protocol for a resolved spec on
// its cluster + schedule entries. Both /v1/simulate and every /v1/batch
// variant produce their result through this one function, so a batch
// variant's payload is structurally guaranteed to match the individual
// simulate response for the same spec. The header is the schedule entry's:
// its key holds r's seed and membership digest.
func computeSimulateResult(ce *clusterEntry, e *scheduleEntry, r resolved) (SimulateResult, error) {
	out, err := ce.c.Run(cluster.Experiment{Warmup: r.warmupIters, Measure: r.measureIters}, cluster.RunOptions{
		Schedule:    e.sched,
		Seed:        r.seed,
		Jitter:      r.jitter,
		ReorderProb: r.reorderProb,
		Stragglers:  r.stragglers,
		Contention:  r.contention,
		Events:      r.events,
	})
	if err != nil {
		return SimulateResult{}, fmt.Errorf("simulate: %w", err)
	}
	// The mean makespan sums every iteration's, so it is not finite when
	// any makespan is not.
	if err := checkFinite(out.MeanMakespan, out.MeanThroughput, out.RecoverySeconds,
		out.MaxStragglerPct, out.MeanEfficiency, out.MinEfficiency); err != nil {
		return SimulateResult{}, err
	}
	result := SimulateResult{
		ResultHeader:         e.header,
		WarmupIterations:     r.warmupIters,
		MeasureIterations:    r.measureIters,
		MeanMakespan:         out.MeanMakespan,
		MeanThroughput:       out.MeanThroughput,
		RecoverySecondsTotal: out.RecoverySeconds,
		MaxStragglerPct:      out.MaxStragglerPct,
		MeanEfficiency:       out.MeanEfficiency,
		MinEfficiency:        out.MinEfficiency,
		UniqueRecvOrders:     out.UniqueRecvOrders,
		Makespans:            make([]float64, 0, len(out.Iterations)),
	}
	for _, it := range out.Iterations {
		result.Makespans = append(result.Makespans, it.Makespan)
		result.ReorderEvents += it.ReorderEvents
	}
	return result, nil
}

// simulate runs the experiment protocol for a resolved request, reusing the
// cached cluster (and its shared sim.Runner) and the cached schedule.
func (s *Service) simulate(res resolved) (*SimulateResponse, error) {
	e, ce, cached, err := s.schedule(res)
	if err != nil {
		return nil, fmt.Errorf("schedule build: %w", err)
	}
	result, err := computeSimulateResult(ce, e, res)
	if err != nil {
		return nil, err
	}
	return &SimulateResponse{Cached: cached, Result: result}, nil
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	var req SimulateRequest
	if err := decodeStrict(body, &req); err != nil {
		return err
	}
	res, err := req.Workload.resolve()
	if err != nil {
		return err
	}
	if handled, err := s.maybeForward(w, r, body, res); handled || err != nil {
		return err
	}
	resp, err := s.simulate(res)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// PoliciesResponse is the body of GET /v1/policies.
type PoliciesResponse struct {
	// Policies lists every registered scheduling policy in canonical order.
	Policies []string `json:"policies"`
	// Baseline is the selector for the unscheduled baseline ("none").
	Baseline string `json:"baseline"`
}

func (s *Service) handlePolicies(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, PoliciesResponse{Policies: sched.Names(), Baseline: sched.None})
	return nil
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining marks a fleet node that has begun graceful drain (it still
	// serves, but is streaming its cache out and will exit).
	Draining bool `json:"draining,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
	})
	return nil
}

// CacheCounters mirrors cache.Stats for /metrics, with derived fields.
type CacheCounters struct {
	Policy    string  `json:"policy"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	Errors    uint64  `json:"errors"`
	Resident  int     `json:"resident"`
	HitRate   float64 `json:"hit_rate"`
}

func counters[K comparable, V any](c *cache.Cache[K, V]) CacheCounters {
	st := c.Stats()
	return CacheCounters{
		Policy:    c.Policy(),
		Hits:      st.Hits,
		Misses:    st.Misses,
		Coalesced: st.Coalesced,
		Evictions: st.Evictions,
		Errors:    st.Errors,
		Resident:  c.Len(),
		HitRate:   st.HitRate(),
	}
}

// EndpointSnapshot is one endpoint's /metrics entry.
type EndpointSnapshot struct {
	Count          uint64               `json:"count"`
	Errors         uint64               `json:"errors"`
	LatencySeconds stats.LatencySummary `json:"latency_seconds"`
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Requests      map[string]EndpointSnapshot `json:"requests"`
	Cache         struct {
		Clusters  CacheCounters `json:"clusters"`
		Schedules CacheCounters `json:"schedules"`
	} `json:"cache"`
	Builds struct {
		Clusters uint64 `json:"clusters"`
		// DerivedClusters counts cost-model-only cluster derivations that
		// reused an already-parsed graph (batch variants with overrides).
		DerivedClusters uint64 `json:"derived_clusters"`
		Schedules       uint64 `json:"schedules"`
		// Predictions counts the schedule builds that simulated their
		// jitter-0 iteration; the rest reused the seed-free makespan of
		// an earlier build on the same cluster and policy.
		Predictions uint64 `json:"predictions"`
	} `json:"builds"`
	// Fleet is the fleet-mode section (nil outside fleet mode): the ring
	// view with per-peer forward/hedge/drain counters. See docs/fleet.md.
	Fleet *FleetMetrics `json:"fleet,omitempty"`
}

// Metrics returns the current metrics snapshot (the /metrics payload).
func (s *Service) Metrics() MetricsResponse {
	resp := MetricsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      make(map[string]EndpointSnapshot, len(s.endpoints)),
	}
	for name, m := range s.endpoints {
		resp.Requests[name] = EndpointSnapshot{
			Count:          m.requests.Load(),
			Errors:         m.errors.Load(),
			LatencySeconds: m.lat.Snapshot(),
		}
	}
	resp.Cache.Clusters = counters(s.clusters)
	resp.Cache.Schedules = counters(s.schedules)
	resp.Builds.Clusters = s.clusterBuilds.Load()
	resp.Builds.DerivedClusters = s.derivedClusters.Load()
	resp.Builds.Schedules = s.scheduleBuilds.Load()
	resp.Builds.Predictions = s.predictions.Load()
	resp.Fleet = s.fleetMetrics()
	return resp
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, s.Metrics())
	return nil
}
