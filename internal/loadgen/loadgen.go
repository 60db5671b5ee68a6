// Package loadgen is the load generator for tictacd. It replays one
// trace.Workload against a server, a fleet, or a grid of self-hosted
// servers, and checks every response byte for byte against a fresh
// in-process service answering the same body.
//
// A closed loop is a trace replayed at timescale 0 under a concurrency cap;
// an open loop is the trace paced at its recorded times, with latency
// counted from each event's due time so a stalled server cannot hide the
// queueing it causes. The built-in Mix is a closed-loop trace; with Probes
// set, /v1/batch sweeps, membership-churn checks and error-envelope checks
// ride along with it (see probes.go).
//
// cmd/tictac-load is the command-line front end, and CI's service-smoke,
// trace-replay-smoke and fleet-smoke jobs run it.
package loadgen

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tictac/internal/cache"
	"tictac/internal/service"
	"tictac/internal/stats"
	"tictac/internal/trace"
)

// Options configures Run.
type Options struct {
	// Trace is the workload to replay. Required.
	Trace *trace.Workload
	// Targets are http(s) base URLs of running tictacd nodes. One URL is a
	// fleet of one and gets a single try per request; several get
	// round-robin with failover. Empty self-hosts one in-process server per
	// (Policies × CacheSizes) point.
	Targets []string
	// Concurrency caps in-flight requests (default 16).
	Concurrency int
	// Timescale maps trace time to wall-clock time: an event at trace time
	// T is due T×Timescale seconds after the start. 0 is a closed loop.
	Timescale float64
	// Policies and CacheSizes are the eviction policies and schedule-cache
	// capacities of the self-hosted servers and of the offline section
	// (default lru × 256, the daemon's own).
	Policies   []string
	CacheSizes []int
	// Probes interleaves the batch and churn probes into the load and runs
	// the error probes after it.
	Probes bool
	// Progress, when non-nil, is called after each completed trace event
	// with (completed, total). It may be called concurrently.
	Progress func(completed, total int)
}

func (o Options) withDefaults() (Options, error) {
	if o.Trace == nil {
		return o, fmt.Errorf("loadgen: no trace")
	}
	if err := o.Trace.Validate(); err != nil {
		return o, err
	}
	for _, t := range o.Targets {
		if u, err := url.Parse(t); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return o, fmt.Errorf("loadgen: target %q is not an http(s) base URL", t)
		}
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 16
	}
	if o.Timescale < 0 {
		return o, fmt.Errorf("loadgen: timescale must be >= 0 (got %g)", o.Timescale)
	}
	if len(o.Policies) == 0 {
		o.Policies = []string{cache.LRU}
	}
	for _, p := range o.Policies {
		if _, err := cache.NewPolicy(p); err != nil {
			return o, err
		}
	}
	if len(o.CacheSizes) == 0 {
		o.CacheSizes = []int{service.DefaultCacheCapacity}
	}
	for _, n := range o.CacheSizes {
		if n <= 0 {
			return o, fmt.Errorf("loadgen: cache sizes must be > 0 (got %d)", n)
		}
	}
	return o, nil
}

// Mix is the built-in workload: requests schedule events, all due at t = 0,
// cycling through AlexNet v2, Inception v1 and ResNet-50 v1 × tic and
// critical-path on 2 workers and 1 PS under one seed. The policies are
// analytic, so the reference answers stay cheap.
func Mix(requests int, seed int64) *trace.Workload {
	return mix([]string{"AlexNet v2", "Inception v1", "ResNet-50 v1"}, []string{"tic", "critical-path"}, requests, seed)
}

func mix(models, policies []string, requests int, seed int64) *trace.Workload {
	w := &trace.Workload{Version: trace.WorkloadVersion, Name: "mix", Seed: seed}
	for i := 0; i < requests; i++ {
		k := i % (len(models) * len(policies))
		w.Events = append(w.Events, trace.Event{
			Model: models[k/len(policies)], Policy: policies[k%len(policies)], Workers: 2, PS: 1, Seed: seed,
		})
	}
	return w
}

// Report is one run: a live curve per target set or self-hosted server,
// plus the offline replay of the same trace through bare caches.
type Report struct {
	Trace        string   `json:"trace"`
	Targets      []string `json:"targets,omitempty"`
	Events       int      `json:"events"`
	DistinctKeys int      `json:"distinct_keys"`
	Concurrency  int      `json:"concurrency"`
	Timescale    float64  `json:"timescale"`

	Curves []Curve `json:"curves"`
	// Offline replays the trace through bare caches under every
	// policy plus the primed Belady oracle, whose hit count bounds every
	// online policy at every capacity.
	Offline []trace.ReplayRow `json:"offline"`
}

// Curve is the trace replayed through one server or fleet. Capacity is
// known only for self-hosted servers; Policy is read from /metrics.
type Curve struct {
	Policy   string `json:"policy"`
	Capacity int    `json:"capacity,omitempty"`

	Requests        int `json:"requests"`
	Failures        int `json:"failures"`
	Mismatches      int `json:"mismatches"`
	CachedResponses int `json:"cached_responses"`
	// Retries counts failovers to another target after a transport error
	// or a 503 fleet_unavailable.
	Retries int `json:"retries"`

	DurationSeconds float64 `json:"duration_seconds"`
	// Latency runs from each event's due time when paced and from its send
	// otherwise. SendLag (paced runs only) is how late the sends ran.
	Latency stats.LatencySummary  `json:"latency_seconds"`
	SendLag *stats.LatencySummary `json:"send_lag_seconds,omitempty"`

	Probes *Probes `json:"probes,omitempty"`

	// Server sums the /metrics deltas over the run of every target still
	// reachable after it; PerNode holds them per target URL. DeadTargets
	// did not answer /metrics after the run.
	Server      NodeStats            `json:"server"`
	PerNode     map[string]NodeStats `json:"per_node"`
	DeadTargets []string             `json:"dead_targets,omitempty"`
}

// Err returns nil when the run upheld the service contract: every request
// succeeded and matched the reference, every probe passed, a trace with
// repeats got server cache hits on every curve (coalesced lookups do not
// count), and the offline oracle dominated every online policy.
func (r *Report) Err() error {
	for _, c := range r.Curves {
		at := fmt.Sprintf("loadgen: %s/cap=%d", c.Policy, c.Capacity)
		switch {
		case c.Failures > 0:
			return fmt.Errorf("%s: %d/%d requests failed", at, c.Failures, c.Requests)
		case c.Mismatches > 0:
			return fmt.Errorf("%s: %d responses diverged from the reference", at, c.Mismatches)
		case len(c.PerNode) == 0:
			return fmt.Errorf("%s: no target answered /metrics after the run", at)
		case r.Events > r.DistinctKeys && c.Server.Hits == 0:
			return fmt.Errorf("%s: no server cache hits across %d requests over %d keys", at, r.Events, r.DistinctKeys)
		}
		if err := c.Probes.err(); err != nil {
			return fmt.Errorf("%s: %w", at, err)
		}
	}
	oracle := make(map[int]uint64)
	for _, row := range r.Offline {
		if row.Policy == cache.Belady {
			oracle[row.Capacity] = row.Hits
		}
	}
	for _, row := range r.Offline {
		if best := oracle[row.Capacity]; row.Hits > best {
			return fmt.Errorf("loadgen: offline %s hit %d > oracle %d at capacity %d", row.Policy, row.Hits, best, row.Capacity)
		}
	}
	return nil
}

// Run replays opts.Trace and reports one curve per target set or
// self-hosted server. An error means the run could not start; a contract
// violation is reported by the returned Report's Err.
func Run(opts Options) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	w := opts.Trace
	r := &Report{
		Trace:        w.Name,
		Targets:      opts.Targets,
		Events:       len(w.Events),
		DistinctKeys: w.DistinctKeys(),
		Concurrency:  opts.Concurrency,
		Timescale:    opts.Timescale,
	}
	// Reference answers come first, so computing them does not load the
	// client while it measures.
	ref := newVerifier()
	bodies := make([][]byte, len(w.Events))
	for i, e := range w.Events {
		bodies[i] = marshal(service.ScheduleRequest{Workload: service.WorkloadSpec{
			Model: e.Model, Policy: e.Policy, Workers: e.Workers, PS: e.PS, Seed: e.Seed,
		}})
		if _, err := ref.want(pathSchedule, bodies[i]); err != nil {
			return nil, fmt.Errorf("loadgen: trace event %d: %w", i, err)
		}
	}

	if len(opts.Targets) > 0 {
		r.Curves = append(r.Curves, runCurve(opts, ref, bodies, opts.Targets))
	} else {
		for _, policy := range opts.Policies {
			for _, capacity := range opts.CacheSizes {
				srv := httptest.NewServer(service.New(service.Options{CacheCapacity: capacity, CachePolicy: policy}).Handler())
				c := runCurve(opts, ref, bodies, []string{srv.URL})
				srv.Close()
				c.Capacity = capacity
				r.Curves = append(r.Curves, c)
			}
		}
	}

	policies := opts.Policies
	if !slices.Contains(policies, cache.Belady) {
		policies = append(slices.Clip(policies), cache.Belady)
	}
	for _, capacity := range opts.CacheSizes {
		for _, policy := range policies {
			row, err := trace.ReplayCache(w, policy, capacity)
			if err != nil {
				return nil, err
			}
			r.Offline = append(r.Offline, row)
		}
	}
	return r, nil
}

// job is one unit of work for the client pool: trace event i when i is
// below the event count, otherwise probe i - events.
type job struct {
	i   int
	due time.Time
}

// runCurve replays the trace once against one target set.
func runCurve(opts Options, ref *verifier, bodies [][]byte, targets []string) Curve {
	d := &dialer{targets: targets}
	before := snapshot(targets)
	var pr *prober
	extras := 0
	if opts.Probes {
		pr, extras = newProber(opts.Trace), batchProbes+churnProbes
	}
	var failures, mismatches, cached, done atomic.Int64
	lat := stats.NewLatencyRecorder(len(bodies))
	lag := stats.NewLatencyRecorder(len(bodies))
	paced := opts.Timescale > 0

	// The queue holds every job, so the feeder never waits on the workers:
	// a paced run stays open-loop however slow the server gets.
	jobs := make(chan job, len(bodies)+extras)
	var wg sync.WaitGroup
	for range opts.Concurrency {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.i >= len(bodies) {
					pr.run(d, ref, j.i-len(bodies))
					continue
				}
				from := time.Now()
				if paced {
					lag.Observe(from.Sub(j.due).Seconds())
					from = j.due
				}
				want, _ := ref.want(pathSchedule, bodies[j.i]) // computed before the run
				got, wasCached, err := d.result(pathSchedule, bodies[j.i])
				lat.Observe(time.Since(from).Seconds())
				switch {
				case err != nil:
					failures.Add(1)
				case !bytes.Equal(got, want):
					mismatches.Add(1)
				case wasCached:
					cached.Add(1)
				}
				if n := done.Add(1); opts.Progress != nil {
					opts.Progress(int(n), len(bodies))
				}
			}
		}()
	}

	// Probes are spread evenly through the events.
	stride := len(bodies)
	if extras > 0 {
		stride = max(1, len(bodies)/extras)
	}
	sent := 0
	start := time.Now()
	for i, e := range opts.Trace.Events {
		due := start.Add(time.Duration(e.T * opts.Timescale * float64(time.Second)))
		if paced {
			time.Sleep(time.Until(due))
		}
		jobs <- job{i: i, due: due}
		if extras > 0 && (i+1)%stride == 0 && sent < extras {
			jobs <- job{i: len(bodies) + sent}
			sent++
		}
	}
	for ; sent < extras; sent++ {
		jobs <- job{i: len(bodies) + sent}
	}
	close(jobs)
	wg.Wait()

	c := Curve{
		Requests:        len(bodies),
		Failures:        int(failures.Load()),
		Mismatches:      int(mismatches.Load()),
		CachedResponses: int(cached.Load()),
		DurationSeconds: time.Since(start).Seconds(),
		Latency:         lat.Snapshot(),
		PerNode:         make(map[string]NodeStats, len(targets)),
	}
	if paced {
		s := lag.Snapshot()
		c.SendLag = &s
	}
	if pr != nil {
		pr.checkErrors(d)
		c.Probes = &pr.rep
	}
	c.Retries = int(d.retries.Load())

	after := snapshot(targets)
	for _, t := range targets {
		a, ok := after[t]
		if !ok {
			c.DeadTargets = append(c.DeadTargets, t)
			continue
		}
		if c.Policy == "" {
			c.Policy = a.Policy
		}
		a.sub(before[t])
		c.PerNode[t] = a
		c.Server.add(a)
	}
	return c
}
