// Package service is the long-running scheduling daemon behind cmd/tictacd:
// an HTTP/JSON facade over the TicTac library that serves schedule requests
// and what-if simulations under heavy concurrent traffic.
//
// Endpoints (see docs/service.md for the full API reference):
//
//	POST /v1/schedule   compute a transfer schedule + predicted makespan
//	POST /v1/simulate   run the warmup/measure experiment protocol
//	POST /v1/batch      fan one workload out across many what-if variants
//	GET  /v1/policies   list registered scheduling policies
//	GET  /healthz       liveness probe
//	GET  /metrics       request counts, cache hit rates, p50/p99 latency
//
// Every request resolves through one WorkloadSpec envelope — a single
// validation/digest path shared by all three POST endpoints — and every
// error is a structured JSON envelope {"error":{"code","message"}} with a
// stable code (see errors.go).
//
// Two content-addressed caches (internal/cache: LRU + singleflight)
// sit under the handlers. Clusters are cached by (graph shape, platform
// digest, membership digest); schedules by (graph digest, platform digest,
// membership digest, policy, warmup, seed) — the digest keying means two
// requests share a slot exactly when
// they are semantically identical, however they were phrased (e.g.
// batch_factor 0 and 1 resolve to the same graph, and an empty overrides
// object resolves to the homogeneous platform). Concurrent identical
// requests coalesce onto one build; a cached cluster also carries the
// shared sim.Runner pool every simulation of that graph reuses, and batch
// variants that only change the cost model derive their cluster from the
// base via cluster.WithPlatforms instead of re-parsing the graph.
//
// Determinism contract: every response body is a pure function of the
// request. All randomness derives from the request seed, predicted
// makespans are simulated with zero jitter unless the request says
// otherwise, cached responses are byte-identical to freshly built ones, and
// batch results are bit-identical at any worker-pool width (the load
// generator in internal/loadgen and the CI service-smoke job hold the
// server to all of it).
package service

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tictac/internal/cache"
	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/fleet"
	"tictac/internal/stats"
)

// Options configures a Service. The zero value selects sensible defaults.
type Options struct {
	// CacheCapacity bounds each cache's resident entries (clusters and
	// schedules independently). <= 0 selects DefaultCacheCapacity.
	CacheCapacity int
	// CachePolicy is the eviction policy name for both caches — any name in
	// cache.Policies() (default cache.LRU). Validate unknown names with
	// cache.NewPolicy before calling New: New panics on them, because its
	// no-error signature predates pluggable policies and every caller
	// already resolves options up front.
	CachePolicy string
	// MaxBatch caps the variant count of a single /v1/batch request;
	// requests above it are rejected with 413 batch_too_large. <= 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// BatchJobs is the worker-pool width batch variants fan out on. <= 0
	// selects engine.DefaultJobs. Results are bit-identical at any width.
	BatchJobs int
	// Fleet, when non-nil, puts the service in fleet mode: requests whose
	// routing key hashes to another member are transparently forwarded,
	// /v1/fleet, /v1/fleet/warm and /v1/drain are served, and /metrics
	// gains the fleet section. See docs/fleet.md.
	Fleet *fleet.Node
	// FleetHedgeTimeout is how long a forward waits on the owner before
	// hedging to the next replica (<= 0 selects fleet.DefaultHedgeTimeout).
	FleetHedgeTimeout time.Duration
	// FleetClient is the HTTP client forwards and drain streaming use
	// (nil selects a default with a 10s timeout).
	FleetClient *http.Client
}

const (
	// DefaultCacheCapacity sizes each cache for the Table 1 catalog times a
	// policy sweep, with room to spare.
	DefaultCacheCapacity = 256
	// DefaultMaxBatch is the default /v1/batch variant cap (-max-batch).
	DefaultMaxBatch = 1024
)

// Service implements the tictacd HTTP API. Create with New; the zero value
// is not usable. A Service is safe for concurrent use by any number of
// in-flight requests.
type Service struct {
	opts  Options
	start time.Time

	clusters  *cache.Cache[clusterKey, *clusterEntry]
	schedules *cache.Cache[scheduleKey, *scheduleEntry]

	// clusterBuilds counts full graph parses (cluster.Build);
	// derivedClusters counts cost-model-only derivations
	// (cluster.WithPlatforms) that reuse an already-parsed graph. A batch
	// of N variants over one graph adds exactly 1 to clusterBuilds.
	clusterBuilds   atomic.Uint64
	derivedClusters atomic.Uint64
	scheduleBuilds  atomic.Uint64
	// predictions counts the schedule builds that simulated their jitter-0
	// iteration; the others took a memoized seed-free makespan.
	predictions atomic.Uint64

	// scheduleBuildHook, when non-nil, runs inside every schedule build
	// (test instrumentation for coalescing proofs).
	scheduleBuildHook func()

	endpoints map[string]*endpointMetrics

	// Fleet mode (nil/zero outside it): the membership/health node, the
	// hedged forwarder, the client drain streaming uses, and the draining
	// latch (set by Drain; a draining node stops forwarding and serves
	// everything locally while its entries stream out).
	fleet       *fleet.Node
	forwarder   *fleet.Forwarder
	fleetClient *http.Client
	draining    atomic.Bool
}

// clusterEntry is a built, compacted cluster plus the digests derived from
// it once. The embedded Cluster carries the shared, concurrency-safe
// sim.Runner that every simulation of this graph reuses, and holds its
// graph only weakly (see cluster.Cluster.Compact).
type clusterEntry struct {
	c              *cluster.Cluster
	graphDigest    string
	platformDigest string

	mu sync.Mutex
	// predictions memoizes, by policy name, what the schedule builds of a
	// policy whose schedule is the same for every seed share on this
	// cluster (see prediction). It lives as long as the entry.
	//
	//tictac:guardedby mu
	predictions map[string]prediction
}

// prediction is what every seed's schedule build shares for one policy on
// one cluster when the policy's schedule does not depend on the seed: the
// schedule itself, its digest and, when the jitter-0 iteration made no
// seeded choice (cluster.Iteration.SeedFree), its makespan, which every
// seed then gets. The cluster holds a partition-only policy's schedule
// weakly; keeping it here pins it for the entry's lifetime, so a GC does
// not make the next seed order the reference worker again.
type prediction struct {
	sched          *core.Schedule
	scheduleDigest string
	seedFree       bool
	makespan       float64 // valid when seedFree
}

// recall returns the memoized prediction for r's policy, if any.
func (ce *clusterEntry) recall(r resolved) (prediction, bool) {
	if !r.sharedSchedule {
		return prediction{}, false
	}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	p, ok := ce.predictions[r.policy]
	return p, ok
}

// remember memoizes p for r's policy when its schedule is shared by every
// seed. Concurrent first builds store equal values.
func (ce *clusterEntry) remember(r resolved, p prediction) {
	if !r.sharedSchedule {
		return
	}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.predictions == nil {
		ce.predictions = make(map[string]prediction)
	}
	ce.predictions[r.policy] = p
}

// scheduleKey is the schedule-cache key mandated by the determinism
// contract: content digests, not request phrasing. membershipDigest is ""
// for churn-free requests; any membership change produces a new digest and
// therefore a new slot, so a schedule (and its predicted makespan, which
// reflects the fleet timeline) can never be served stale across a
// membership change.
type scheduleKey struct {
	graphDigest      string
	platformDigest   string
	membershipDigest string
	policy           string
	warmup           int
	seed             int64
}

// scheduleEntry is a computed schedule plus its canonical response payload.
// payload is marshaled exactly once at build time, so every response for
// this key — hit, miss or coalesced — serves the same bytes. spec is the
// workload that produced the entry; fleet drain streams it to the entry's
// new owner, which recomputes the same bytes deterministically.
type scheduleEntry struct {
	sched   *core.Schedule
	result  ScheduleResult
	payload []byte
	spec    WorkloadSpec
}

// New returns a Service with the given options.
func New(opts Options) *Service {
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = DefaultCacheCapacity
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.CachePolicy == "" {
		opts.CachePolicy = cache.LRU
	}
	s := &Service{
		opts:  opts,
		start: time.Now(),
		clusters: cache.NewWith(cache.Config[clusterKey, *clusterEntry]{
			Capacity: opts.CacheCapacity,
			Policy:   evictionPolicy(opts.CachePolicy),
		}),
		schedules: cache.NewWith(cache.Config[scheduleKey, *scheduleEntry]{
			Capacity: opts.CacheCapacity,
			Policy:   evictionPolicy(opts.CachePolicy),
		}),
		endpoints: make(map[string]*endpointMetrics),
	}
	for _, name := range []string{"schedule", "simulate", "batch", "policies", "healthz", "metrics"} {
		s.endpoints[name] = &endpointMetrics{lat: stats.NewLatencyRecorder(stats.DefaultLatencyWindow)}
	}
	if opts.Fleet != nil {
		s.fleet = opts.Fleet
		s.fleetClient = opts.FleetClient
		if s.fleetClient == nil {
			s.fleetClient = &http.Client{Timeout: 10 * time.Second}
		}
		s.forwarder = fleet.NewForwarder(s.fleet, s.fleetClient, opts.FleetHedgeTimeout)
		for _, name := range []string{"fleet", "warm", "drain"} {
			s.endpoints[name] = &endpointMetrics{lat: stats.NewLatencyRecorder(stats.DefaultLatencyWindow)}
		}
	}
	return s
}

// evictionPolicy returns a fresh instance of the named eviction policy for
// one cache. It panics on an unknown name (see Options.CachePolicy).
func evictionPolicy(name string) cache.EvictionPolicy {
	p, err := cache.NewPolicy(name)
	if err != nil {
		panic("service: " + err.Error())
	}
	return p
}

// ScheduleRequest is the body of POST /v1/schedule and (by alias) of
// POST /v1/simulate: the workload in its envelope,
//
//	{"workload": {"model": "AlexNet", "policy": "tic", ...}}
//
// Any other top-level field is a 400 bad_request.
type ScheduleRequest struct {
	Workload WorkloadSpec `json:"workload"`
}

// SimulateRequest is the body of POST /v1/simulate. It is the same envelope
// as ScheduleRequest: the simulate protocol knobs (warmup_iterations,
// measure_iterations, jitter, reorder_prob, stragglers, contention) are
// part of WorkloadSpec and simply ignored by /v1/schedule.
type SimulateRequest = ScheduleRequest

// buildCluster returns the cached cluster for the resolved spec, parsing
// and digesting the graph at most once per residency. The cached cluster
// is compacted: it keeps the tables its simulations read and holds the
// graph weakly.
func (s *Service) buildCluster(r resolved) (*clusterEntry, cache.Outcome, error) {
	return s.clusters.Do(r.key, func() (*clusterEntry, error) {
		s.clusterBuilds.Add(1)
		c, err := cluster.Build(r.cfg)
		if err != nil {
			return nil, err
		}
		digest := core.GraphDigest(c.Graph)
		if err := c.Compact(); err != nil {
			return nil, err
		}
		return &clusterEntry{
			c:              c,
			graphDigest:    digest,
			platformDigest: r.key.platformDigest,
		}, nil
	})
}

// derivedCluster returns the cached cluster for a resolved spec that shares
// its graph shape with base and differs only in cost model, deriving it via
// cluster.WithPlatforms on a miss — no second graph parse, and the base's
// sim.Runner pool is shared. The batch handler routes every non-base
// variant cluster through here.
func (s *Service) derivedCluster(base *clusterEntry, r resolved) (*clusterEntry, cache.Outcome, error) {
	return s.clusters.Do(r.key, func() (*clusterEntry, error) {
		s.derivedClusters.Add(1)
		c, err := base.c.WithPlatforms(r.cfg.Platform, r.cfg.Platforms)
		if err != nil {
			return nil, err
		}
		return &clusterEntry{
			c:              c,
			graphDigest:    base.graphDigest,
			platformDigest: r.key.platformDigest,
		}, nil
	})
}

// ScheduleResult is the deterministic payload of a schedule response: a
// pure function of the request, cached and served byte-identically to every
// requester of the same semantic content.
type ScheduleResult struct {
	Model   string `json:"model"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	PS      int    `json:"ps"`
	Env     string `json:"env"`
	Policy  string `json:"policy"`
	Seed    int64  `json:"seed"`

	GraphDigest    string `json:"graph_digest"`
	PlatformDigest string `json:"platform_digest"`
	ScheduleDigest string `json:"schedule_digest"`
	// MembershipDigest fingerprints the workload's membership events
	// (empty for a static fleet); it diverges the moment the planned churn
	// differs, so clients can assert they were not served a stale schedule.
	MembershipDigest string `json:"membership_digest"`

	Algorithm string         `json:"algorithm"`
	Transfers int            `json:"transfers"`
	Order     []string       `json:"order"`
	Rank      map[string]int `json:"rank"`

	// PredictedMakespan is one simulated iteration under the schedule with
	// zero jitter and the request seed, in seconds.
	PredictedMakespan float64 `json:"predicted_makespan_seconds"`
}

// computeScheduleResult is the single code path that turns a built cluster
// into a schedule response. Every cache miss builds through it, and the
// load generator's reference is a fresh in-process service, so a served
// answer and its reference always come from this one function. A build
// whose cluster holds a prediction for its policy takes the schedule and
// its digest from it and, when the prediction is seed-free, the makespan
// too, instead of simulating the jitter-0 iteration; all are what this
// build would compute. Every build that simulates adds 1 to predictions.
func computeScheduleResult(ce *clusterEntry, r resolved, predictions *atomic.Uint64) (*scheduleEntry, error) {
	p, memoized := ce.recall(r)
	sc := p.sched
	if !memoized {
		var err error
		if sc, err = ce.c.ComputeSchedule(r.policy, r.warmup, r.seed); err != nil {
			return nil, err
		}
	}
	if !p.seedFree {
		// The predicted makespan reflects the fleet's iteration-0 timeline:
		// membership events striking iteration 0 (an initially-absent
		// worker, a failed shard) change the prediction, not just the
		// digest.
		predictions.Add(1)
		it, err := ce.c.RunIteration(cluster.RunOptions{Schedule: sc, Seed: r.seed, Jitter: 0, Events: r.events})
		if err != nil {
			return nil, err
		}
		if err := checkFinite(it.Makespan); err != nil {
			return nil, err
		}
		p.seedFree, p.makespan = it.SeedFree, it.Makespan
		if !memoized {
			p.sched, p.scheduleDigest = sc, core.ScheduleDigest(sc)
			ce.remember(r, p)
		}
	}
	result := ScheduleResult{
		Model:             ce.c.Config.Model.Name,
		Mode:              r.mode,
		Workers:           ce.c.Config.Workers,
		PS:                ce.c.Config.PS,
		Env:               r.env,
		Policy:            r.policy,
		Seed:              r.seed,
		GraphDigest:       ce.graphDigest,
		PlatformDigest:    ce.platformDigest,
		ScheduleDigest:    p.scheduleDigest,
		MembershipDigest:  r.membershipDigest,
		Algorithm:         string(core.AlgoNone),
		Order:             []string{},
		Rank:              map[string]int{},
		PredictedMakespan: p.makespan,
	}
	if sc != nil {
		result.Algorithm = string(sc.Algorithm)
		result.Order = sc.Order
		result.Rank = sc.Rank
		result.Transfers = len(sc.Order)
	}
	payload, err := json.Marshal(result)
	if err != nil {
		return nil, err
	}
	return &scheduleEntry{sched: sc, result: result, payload: payload, spec: r.spec}, nil
}

// scheduleFor returns the cached schedule entry for a resolved spec on an
// already-built cluster. The batch handler calls it directly so duplicate
// variants coalesce onto one schedule computation.
func (s *Service) scheduleFor(ce *clusterEntry, r resolved) (*scheduleEntry, cache.Outcome, error) {
	key := scheduleKey{
		graphDigest:      ce.graphDigest,
		platformDigest:   ce.platformDigest,
		membershipDigest: r.membershipDigest,
		policy:           r.policy,
		warmup:           r.warmup,
		seed:             r.seed,
	}
	return s.schedules.Do(key, func() (*scheduleEntry, error) {
		s.scheduleBuilds.Add(1)
		if s.scheduleBuildHook != nil {
			s.scheduleBuildHook()
		}
		return computeScheduleResult(ce, r, &s.predictions)
	})
}

// schedule returns the cached schedule entry for the resolved request plus
// the cluster entry it was computed on (so callers like simulate don't pay
// a second cluster-cache lookup), reporting whether any build work happened
// on this call's behalf.
func (s *Service) schedule(r resolved) (*scheduleEntry, *clusterEntry, bool, error) {
	ce, clusterOutcome, err := s.buildCluster(r)
	if err != nil {
		return nil, nil, false, err
	}
	e, outcome, err := s.scheduleFor(ce, r)
	if err != nil {
		return nil, nil, false, err
	}
	cached := outcome == cache.Hit && clusterOutcome == cache.Hit
	return e, ce, cached, nil
}

// BuildCounts reports how many cluster and schedule builds the service has
// executed (cache misses that reached the library). Cluster builds count
// full graph parses only — cost-model derivations are DerivedClusterCount.
// The concurrency and batch tests use this to prove coalescing: N identical
// in-flight requests (or N variants over one graph) must add exactly 1.
func (s *Service) BuildCounts() (clusters, schedules uint64) {
	return s.clusterBuilds.Load(), s.scheduleBuilds.Load()
}

// DerivedClusterCount reports how many clusters were derived from an
// already-parsed graph via WithPlatforms (batch variants with overrides).
func (s *Service) DerivedClusterCount() uint64 {
	return s.derivedClusters.Load()
}

// CacheStats returns snapshots of the cluster and schedule caches.
func (s *Service) CacheStats() (clusters, schedules cache.Stats) {
	return s.clusters.Stats(), s.schedules.Stats()
}
