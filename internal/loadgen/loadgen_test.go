package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tictac/internal/cache"
	"tictac/internal/fleet"
	"tictac/internal/service"
	"tictac/internal/trace"
)

// serve starts an httptest server for h and returns its URL.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func testTrace(t *testing.T) *trace.Workload {
	t.Helper()
	w, err := trace.Generate(trace.GeneratorSpec{
		Kind:    trace.GenZipf,
		Seed:    7,
		Events:  60,
		Configs: 8,
		Models:  []string{"AlexNet v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func run(t *testing.T, opts Options) (*Report, Curve) {
	t.Helper()
	report, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Curves) == 0 {
		t.Fatal("report has no curves")
	}
	return report, report.Curves[0]
}

// corrupting forwards to inner and turns the first "envG" of every
// response on path into "envX": a server that breaks the determinism
// contract in one field. On /v1/batch that is the first variant's result.
func corrupting(inner http.Handler, path string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"envG"`), []byte(`"envX"`), 1))
	})
}

func TestRunLoadAgainstInProcessServer(t *testing.T) {
	svc := service.New(service.Options{})
	report, c := run(t, Options{
		Trace:       mix([]string{"AlexNet v2", "Inception v1"}, []string{"tic"}, 60, 1),
		Targets:     []string{serve(t, svc.Handler())},
		Concurrency: 8,
		Probes:      true,
	})
	if err := report.Err(); err != nil {
		t.Fatalf("contract violated: %v (report %+v)", err, report)
	}
	if report.DistinctKeys != 2 {
		t.Errorf("distinct keys = %d, want 2", report.DistinctKeys)
	}
	if c.Failures != 0 || c.Mismatches != 0 {
		t.Errorf("failures/mismatches = %d/%d, want 0/0", c.Failures, c.Mismatches)
	}
	// Schedule builds: 2 for the 60-request schedule load (one per distinct
	// config), plus 3 for the batch probes — seeds 1..4 on the AlexNet
	// config, and seed 1 coincides with the load's slot — plus 4 for the
	// churn probes: 2 probes, each with a quiet and a mutated fleet under
	// distinct seeds.
	if c.Server.ScheduleBuilds != 9 {
		t.Errorf("server built %d schedules, want 9 (2 load configs + 3 new batch seeds + 4 churn workloads)", c.Server.ScheduleBuilds)
	}
	if c.Server.HitRate <= 0.85 {
		t.Errorf("server cache hit rate = %v, want > 0.85 for 60 requests / 2 configs plus probes", c.Server.HitRate)
	}
	if c.CachedResponses == 0 {
		t.Error("no response reported cached=true")
	}
	if c.Latency.Count != 60 || c.Latency.P99 <= 0 || c.SendLag != nil {
		t.Errorf("latency = %+v, send lag = %v; want 60 samples and no send lag in a closed loop", c.Latency, c.SendLag)
	}
	p := c.Probes
	// Batch probes: 4 × (1 policy variant + 1 duplicate + 1 straggler),
	// every variant byte-identical to its /v1/simulate twin.
	if p.BatchRequests != 4 || p.BatchVariants != 12 {
		t.Errorf("batch requests/variants = %d/%d, want 4/12", p.BatchRequests, p.BatchVariants)
	}
	if p.BatchMismatches != 0 || p.BatchFailures != 0 {
		t.Errorf("batch mismatches/failures = %d/%d, want 0/0", p.BatchMismatches, p.BatchFailures)
	}
	if p.ErrorChecks != 10 || len(p.ErrorCheckFailures) != 0 {
		t.Errorf("error checks = %d (failures %v), want 10 clean probes", p.ErrorChecks, p.ErrorCheckFailures)
	}
	if p.ChurnProbes != 2 || p.ChurnStale != 0 || p.ChurnFailures != 0 {
		t.Errorf("churn probes/stale/failures = %d/%d/%d, want 2/0/0", p.ChurnProbes, p.ChurnStale, p.ChurnFailures)
	}
	if _, builds := svc.BuildCounts(); builds != 9 {
		t.Errorf("service built %d schedules, want 9", builds)
	}
}

// TestRunLoadChurnProbeCatchesStaleServer points the churn probes at a
// server that silently drops membership events from every simulate request
// — the cache-keying bug the probe exists to catch (a schedule computed
// for the old fleet served after the fleet changed). Every mutated-fleet
// response comes back with the quiet fleet's bytes and must be counted
// stale.
func TestRunLoadChurnProbeCatchesStaleServer(t *testing.T) {
	inner := service.New(service.Options{}).Handler()
	url := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.SimulateRequest
		if r.URL.Path == pathSimulate && json.NewDecoder(r.Body).Decode(&req) == nil {
			req.Workload.Membership = nil
			body := marshal(req)
			r = r.Clone(r.Context())
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		inner.ServeHTTP(w, r)
	}))
	report, c := run(t, Options{
		Trace:       mix([]string{"AlexNet v2"}, []string{"tic"}, 2, 0),
		Targets:     []string{url},
		Concurrency: 1,
		Probes:      true,
	})
	// Each probe sends the mutated workload twice.
	if c.Probes.ChurnProbes != 2 || c.Probes.ChurnStale != 2*c.Probes.ChurnProbes {
		t.Errorf("churn probes/stale = %d/%d, want 2 probes with both mutated responses flagged",
			c.Probes.ChurnProbes, c.Probes.ChurnStale)
	}
	if report.Err() == nil {
		t.Error("report.Err() = nil despite stale responses across a membership change")
	}
}

// The error probes must catch a server whose failure paths do not speak
// the structured envelope (here: a proxy rewriting error bodies to plain
// text, as a pre-envelope server would).
func TestRunLoadErrorChecksCatchBadEnvelope(t *testing.T) {
	inner := service.New(service.Options{}).Handler()
	url := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code >= 400 {
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(rec.Code)
			w.Write([]byte("error: something went wrong\n"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	report, c := run(t, Options{
		Trace:       mix([]string{"AlexNet v2"}, []string{"tic"}, 4, 0),
		Targets:     []string{url},
		Concurrency: 2,
		Probes:      true,
	})
	if p := c.Probes; len(p.ErrorCheckFailures) != p.ErrorChecks || p.ErrorChecks != 10 {
		t.Errorf("error probes = %d with %d failures, want every one of 10 to flag the plain-text server",
			p.ErrorChecks, len(p.ErrorCheckFailures))
	}
	if report.Err() == nil {
		t.Error("report.Err() = nil despite failing error probes")
	}
}

// TestRunLoadDetectsDivergence points the generator at a server that corrupts
// one field of every schedule response; every one must count as a
// mismatch.
func TestRunLoadDetectsDivergence(t *testing.T) {
	report, c := run(t, Options{
		Trace:       mix([]string{"AlexNet v2"}, []string{"tic"}, 10, 0),
		Targets:     []string{serve(t, corrupting(service.New(service.Options{}).Handler(), pathSchedule))},
		Concurrency: 2,
		Probes:      true,
	})
	if c.Mismatches != 10 || c.Failures != 0 {
		t.Errorf("mismatches/failures = %d/%d, want 10/0 (every response was corrupted)", c.Mismatches, c.Failures)
	}
	if report.Err() == nil {
		t.Error("report.Err() = nil for a diverging server")
	}
}

// A batch whose first variant differs from its /v1/simulate twin is a
// batch mismatch, not a failure.
func TestBatchVariantDivergenceIsAMismatch(t *testing.T) {
	report, c := run(t, Options{
		Trace:   mix([]string{"AlexNet v2"}, []string{"tic"}, 8, 0),
		Targets: []string{serve(t, corrupting(service.New(service.Options{}).Handler(), pathBatch))},
		Probes:  true,
	})
	if p := c.Probes; p.BatchRequests != 4 || p.BatchMismatches != 4 || p.BatchFailures != 0 {
		t.Errorf("batch requests/mismatches/failures = %d/%d/%d, want 4/4/0", p.BatchRequests, p.BatchMismatches, p.BatchFailures)
	}
	if c.Mismatches != 0 || report.Err() == nil {
		t.Errorf("mismatches = %d, Err = %v; want 0 schedule mismatches and a failing report", c.Mismatches, report.Err())
	}
}

// A trace replayed through a corrupting server reports one mismatch per
// event.
func TestTraceReplayDetectsDivergence(t *testing.T) {
	w := testTrace(t)
	report, c := run(t, Options{
		Trace:   w,
		Targets: []string{serve(t, corrupting(service.New(service.Options{}).Handler(), pathSchedule))},
	})
	if c.Mismatches != len(w.Events) || report.Err() == nil {
		t.Errorf("mismatches = %d, Err = %v; want %d and a failing report", c.Mismatches, report.Err(), len(w.Events))
	}
}

// With two targets, requests alternate between them; when one corrupts
// its answers, exactly its share of the responses are mismatches.
func TestFleetModeCatchesOneCorruptTarget(t *testing.T) {
	good := serve(t, service.New(service.Options{}).Handler())
	bad := serve(t, corrupting(service.New(service.Options{}).Handler(), pathSchedule))
	report, c := run(t, Options{
		Trace:       mix([]string{"AlexNet v2"}, []string{"tic"}, 10, 0),
		Targets:     []string{good, bad},
		Concurrency: 1,
	})
	if c.Mismatches != 5 || c.Failures != 0 || c.Retries != 0 {
		t.Errorf("mismatches/failures/retries = %d/%d/%d, want 5/0/0", c.Mismatches, c.Failures, c.Retries)
	}
	if len(c.PerNode) != 2 || report.Err() == nil {
		t.Errorf("per-node stats for %d targets, Err = %v; want 2 and a failing report", len(c.PerNode), report.Err())
	}
}

// TestOpenLoopLatencyCountsQueueing paces 50 events 1 ms apart through one
// client against a server that takes 20 ms per schedule. The last event
// waits for the 49 before it, so its latency is at least 49 × 20 ms −
// 49 ms ≈ 0.93 s; timing from the send instead would hide that wait.
func TestOpenLoopLatencyCountsQueueing(t *testing.T) {
	inner := service.New(service.Options{}).Handler()
	url := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathSchedule {
			time.Sleep(20 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	w := mix([]string{"AlexNet v2"}, []string{"tic"}, 50, 1)
	for i := range w.Events {
		w.Events[i].T = float64(i) / 1000
	}
	report, c := run(t, Options{Trace: w, Targets: []string{url}, Concurrency: 1, Timescale: 1})
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Latency.Max < 0.9 {
		t.Errorf("max latency %.3fs, want >= 0.9s: the queueing behind a slow server is missing", c.Latency.Max)
	}
	if c.SendLag == nil || c.SendLag.Max < 0.9 || c.SendLag.P99 <= 0 {
		t.Errorf("send lag = %+v, want a max of at least 0.9s", c.SendLag)
	}
}

// TestRunReplayInProcess drives the full replay — self-hosted server grid,
// byte-verified responses, offline shootout — on a small fixed-seed trace.
func TestRunReplayInProcess(t *testing.T) {
	w := testTrace(t)
	report, err := Run(Options{
		Trace:      w,
		Policies:   []string{cache.LRU, cache.LFU},
		CacheSizes: []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("replay contract violated: %v", err)
	}
	if len(report.Curves) != 4 {
		t.Fatalf("curves = %d, want 2 policies × 2 sizes = 4", len(report.Curves))
	}
	for _, c := range report.Curves {
		if c.Requests != len(w.Events) {
			t.Fatalf("curve %s/cap=%d replayed %d events, want %d", c.Policy, c.Capacity, c.Requests, len(w.Events))
		}
		if c.Server.Hits == 0 || c.Server.Evictions == 0 {
			t.Fatalf("curve %s/cap=%d looks vacuous: %+v", c.Policy, c.Capacity, c)
		}
	}
	// The offline section covers the grid plus the oracle at each size.
	if len(report.Offline) != 2*3 {
		t.Fatalf("offline rows = %d, want 2 sizes × (2 policies + belady) = 6", len(report.Offline))
	}
	seenOracle := false
	for _, row := range report.Offline {
		seenOracle = seenOracle || row.Policy == cache.Belady
	}
	if !seenOracle {
		t.Fatal("offline section has no oracle rows")
	}
}

// TestSequentialReplayIsReproducible replays one trace twice, one request
// at a time, through self-hosted servers. A cache's decisions depend only
// on the request sequence, so both runs report the same server counters on
// every curve, and those equal the offline replay of the trace through a
// bare cache of the same policy and capacity.
func TestSequentialReplayIsReproducible(t *testing.T) {
	w, err := trace.ReadWorkloadFile("../trace/testdata/zipf.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Trace: w, Concurrency: 1, Policies: []string{cache.LRU}, CacheSizes: []int{8, 16}}
	first, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Curves) != 2 || len(second.Curves) != 2 {
		t.Fatalf("curves = %d and %d, want 2 each", len(first.Curves), len(second.Curves))
	}
	for i, a := range first.Curves {
		b := second.Curves[i]
		if a.Server.Hits != b.Server.Hits || a.Server.Misses != b.Server.Misses || a.Server.Evictions != b.Server.Evictions {
			t.Errorf("lru/cap=%d: run 1 %+v, run 2 %+v; want equal hits, misses and evictions", a.Capacity, a.Server, b.Server)
		}
		if a.Server.Evictions == 0 {
			t.Errorf("lru/cap=%d evicted nothing (%+v); the comparison is vacuous", a.Capacity, a.Server)
		}
		for _, row := range first.Offline {
			if row.Policy == cache.LRU && row.Capacity == a.Capacity &&
				(row.Hits != a.Server.Hits || row.Misses != a.Server.Misses || row.Evictions != a.Server.Evictions) {
				t.Errorf("lru/cap=%d: server %+v, offline %+v; want equal hits, misses and evictions", a.Capacity, a.Server, row)
			}
		}
	}
}

// TestRunReplayAgainstFixedTarget measures one curve against an existing
// server instead of sweeping the grid.
func TestRunReplayAgainstFixedTarget(t *testing.T) {
	svc := service.New(service.Options{CacheCapacity: 4, CachePolicy: cache.LFU})
	report, c := run(t, Options{
		Trace:      testTrace(t),
		Targets:    []string{serve(t, svc.Handler())},
		CacheSizes: []int{4},
	})
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	if len(report.Curves) != 1 {
		t.Fatalf("curves = %d, want exactly 1 for a fixed target", len(report.Curves))
	}
	if c.Policy != cache.LFU {
		t.Fatalf("curve policy = %q (from /metrics), want %q", c.Policy, cache.LFU)
	}
}

// startFleet serves an n-node fleet on loopback with its probe loops
// running and returns each node's URL and server.
func startFleet(t *testing.T, n int) ([]string, []*http.Server) {
	t.Helper()
	lns := make([]net.Listener, n)
	members := make([]fleet.Member, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
		members[i] = fleet.Member{ID: fmt.Sprintf("n%d", i), URL: urls[i]}
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	nodes := make([]*fleet.Node, n)
	srvs := make([]*http.Server, n)
	for i, ln := range lns {
		node, err := fleet.NewNode(fleet.Config{
			Self:          members[i].ID,
			Members:       members,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			Seed:          int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		srvs[i] = &http.Server{Handler: service.New(service.Options{
			Fleet:             node,
			FleetHedgeTimeout: 200 * time.Millisecond,
			FleetClient:       &http.Client{Timeout: 5 * time.Second},
		}).Handler()}
		go srvs[i].Serve(ln)
		t.Cleanup(func() { srvs[i].Close() })
	}
	for _, node := range nodes {
		node.Start(ctx)
	}
	return urls, srvs
}

// TestFleetLoadKillMidLoad is the fleet acceptance test: a 3-node fleet
// under the full mix through every node, one node killed halfway, must
// report zero byte-divergent responses, zero failures, and an aggregate
// cache hit rate within 10% of a single-node run of the same load. The
// Makefile's race target runs it under -race.
func TestFleetLoadKillMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node load run")
	}
	load := Options{
		Trace:       mix([]string{"AlexNet v2"}, []string{"tic", "critical-path"}, 90, 7),
		Concurrency: 8,
		Probes:      true,
	}

	single := load
	single.Targets = []string{serve(t, service.New(service.Options{}).Handler())}
	baseline, err := Run(single)
	if err != nil {
		t.Fatalf("single-node baseline: %v", err)
	}
	if err := baseline.Err(); err != nil {
		t.Fatalf("single-node baseline: %v", err)
	}

	urls, srvs := startFleet(t, 3)
	var killOnce sync.Once
	load.Targets = urls
	load.Progress = func(completed, total int) {
		if completed >= total/2 {
			killOnce.Do(func() { srvs[2].Close() })
		}
	}
	report, c := run(t, load)
	if err := report.Err(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if c.Mismatches != 0 || c.Probes.BatchMismatches != 0 || c.Probes.ChurnStale != 0 {
		t.Fatalf("byte divergence under node kill: %+v", c)
	}
	if c.Failures != 0 {
		t.Fatalf("%d failures under node kill (failover should absorb them)", c.Failures)
	}
	if len(c.DeadTargets) != 1 || c.DeadTargets[0] != urls[2] {
		t.Fatalf("dead targets %v, want exactly the killed node %s", c.DeadTargets, urls[2])
	}
	if want := baseline.Curves[0].Server.HitRate; c.Server.HitRate < 0.9*want {
		t.Fatalf("aggregate hit rate %.3f degraded more than 10%% vs single-node %.3f", c.Server.HitRate, want)
	}
}
