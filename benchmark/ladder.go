package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/service"
	"tictac/internal/sim"
	"tictac/internal/timing"
)

// The ladder times a seeded sample of the traced run's requests rung by
// rung: the round trip, the same body through the service handler in
// process, its JSON decode and encode, and the library calls the request
// implies. Each rung runs ladderRepeats times and its median is kept.
const (
	ladderSamples = 64
	ladderRepeats = 5
)

// Rung names. They name the spans, and the per-layer metrics add a unit.
const (
	rungRequest   = "request" // the root span of one sampled request
	rungRoundtrip = "http.roundtrip"
	rungOwner     = "fleet.owner_roundtrip" // straight to the key's owner
	rungHandler   = "service.handler"
	rungDecode    = "service.decode"
	rungEncode    = "service.encode"
	rungBuild     = "cluster.build"
	rungDigest    = "core.graph_digest"
	rungOrder     = "sched.order"
	rungCompute   = "cluster.compute_schedule"
	rungIteration = "cluster.run_iteration"
	rungDerive    = "cluster.with_platforms"
	rungRun       = "cluster.run"
	rungRunner    = "sim.runner_run"
	rungVariants  = "batch.variants" // one pass over a batch's variants
)

// span is one timed interval. Spans of one sampled request share Trace;
// Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the run began
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(trace, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: micros(start.Sub(t.origin)), End: micros(end.Sub(t.origin))})
	return id
}

// end closes span id at the current time.
func (t *tracer) end(id int) {
	t.spans[id-1].End = micros(time.Since(t.origin))
}

// write stores the spans as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one sampled request and its rung medians in microseconds.
type sample struct {
	path   string
	cached bool // as the daemon answered it in the traced run
	rungs  map[string]float64
	// work is, for a batch, the summed library time of its distinct
	// variants, run one after another.
	work float64
}

// ladder runs the rungs for one workload.
type ladder struct {
	ctx   context.Context
	w     *workload
	dep   *deployment
	hc    *http.Client
	tr    *tracer
	trace int // the sample being timed
	root  int // its root span
}

// runLadder samples n requests of the traced windows and times every rung
// of each.
func runLadder(ctx context.Context, w *workload, dep *deployment, ph phase, tr *tracer, seed int64, n int) ([]sample, error) {
	// In start order first, so that the seed alone decides the sample.
	recs := append([]record(nil), ph.records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	if len(recs) > n {
		recs = recs[:n]
	}
	l := &ladder{ctx: ctx, w: w, dep: dep, hc: newHTTPClient(), tr: tr}
	defer l.hc.CloseIdleConnections()
	var out []sample
	for i, rec := range recs {
		l.trace = i + 1
		s, err := l.run(rec, ph.start)
		if err != nil {
			return nil, fmt.Errorf("ladder, request %d: %w", rec.req, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// run times every rung of one sampled request under a root span.
func (l *ladder) run(rec record, phaseStart time.Time) (sample, error) {
	rq := l.w.reqs[rec.req]
	s := sample{path: rq.path, cached: rec.cached, rungs: map[string]float64{}}
	// Collect the previous sample's garbage now, not during this one's rungs.
	runtime.GC()
	begin := time.Now()
	l.root = l.tr.add(l.trace, 0, rungRequest, begin, begin)

	if err := l.roundtrips(&s, rq, rec, phaseStart); err != nil {
		return s, err
	}
	if err := l.inProcess(&s, rq); err != nil {
		return s, err
	}
	spec, err := baseSpec(rq)
	if err != nil {
		return s, err
	}
	c, err := l.library(&s, spec)
	if err != nil {
		return s, err
	}
	if rq.path == pathBatch {
		if s.work, err = l.variants(c, rq); err != nil {
			return s, err
		}
	}
	l.tr.end(l.root)
	return s, nil
}

// repeat runs fn ladderRepeats times, one child span each, and stores the
// median duration under name.
func (l *ladder) repeat(s *sample, name string, fn func() error) error {
	times := map[string][]float64{}
	for i := 0; i < ladderRepeats; i++ {
		if err := l.timed(name, times, fn); err != nil {
			return err
		}
	}
	s.rungs[name] = median(times[name])
	return nil
}

// timed runs fn once as a child span and appends its duration to
// times[name].
func (l *ladder) timed(name string, times map[string][]float64, fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	t1 := time.Now()
	l.tr.add(l.trace, l.root, name, t0, t1)
	times[name] = append(times[name], micros(t1.Sub(t0)))
	return nil
}

// roundtrips times the request through the entry daemon and straight to
// the member that served it, which is the entry daemon itself outside a
// fleet. A request that missed the cache in the traced run cannot miss
// again on a warm daemon, so its round trip is the one the traced run
// recorded.
func (l *ladder) roundtrips(s *sample, rq request, rec record, phaseStart time.Time) error {
	entry := l.dep.nodes[0]
	if rq.path != pathBatch && !rec.cached {
		t0, t1 := phaseStart.Add(rec.start), phaseStart.Add(rec.end)
		l.tr.add(l.trace, l.root, rungRoundtrip, t0, t1)
		s.rungs[rungRoundtrip] = micros(rec.end - rec.start)
		return nil
	}
	send := func(url string) (response, error) {
		resp, err := post(l.ctx, l.hc, url+rq.path, rq.body)
		if err == nil && resp.status != http.StatusOK {
			err = fmt.Errorf("status %d", resp.status)
		}
		return resp, err
	}
	// The first send finds the owner and opens the connections, untimed.
	resp, err := send(entry.url)
	if err != nil {
		return err
	}
	owner := entry.url
	for _, d := range l.dep.nodes {
		if d.id == resp.via {
			owner = d.url
		}
	}
	if _, err := send(owner); err != nil {
		return err
	}
	// Entry and owner round trips alternate, so both see the same machine.
	times := map[string][]float64{}
	for i := 0; i < ladderRepeats; i++ {
		if err := l.timed(rungRoundtrip, times, func() error { _, err := send(entry.url); return err }); err != nil {
			return err
		}
		if err := l.timed(rungOwner, times, func() error { _, err := send(owner); return err }); err != nil {
			return err
		}
	}
	s.rungs[rungRoundtrip] = median(times[rungRoundtrip])
	s.rungs[rungOwner] = median(times[rungOwner])
	return nil
}

// inProcess times the body through service.New(...).Handler() in this
// process: a warmed Service for a request the daemon served from cache, a
// fresh one per repeat otherwise. It also times the JSON decode of the
// request and the encode of the response.
func (l *ladder) inProcess(s *sample, rq request) error {
	serve := func(svc *service.Service) ([]byte, error) {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: status %d: %.200s", rq.path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	var body []byte
	var err error
	if s.cached {
		warm := service.New(service.Options{})
		if body, err = serve(warm); err != nil {
			return err
		}
		err = l.repeat(s, rungHandler, func() error { _, err := serve(warm); return err })
	} else {
		err = l.repeat(s, rungHandler, func() error { body, err = serve(service.New(service.Options{})); return err })
	}
	if err != nil {
		return err
	}

	decodeInto := func() any { return new(service.ScheduleRequest) }
	var resp any = new(service.SimulateResponse)
	switch rq.path {
	case pathBatch:
		decodeInto = func() any { return new(service.BatchRequest) }
		resp = new(service.BatchResponse)
	case pathSchedule:
		// The daemon marshals a schedule result once, when it builds it.
		var env struct {
			Result service.ScheduleResult `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		resp = &env.Result
	}
	if rq.path != pathSchedule {
		if err := json.Unmarshal(body, resp); err != nil {
			return err
		}
	}
	if err := l.repeat(s, rungDecode, func() error {
		dec := json.NewDecoder(bytes.NewReader(rq.body))
		dec.DisallowUnknownFields()
		return dec.Decode(decodeInto())
	}); err != nil {
		return err
	}
	return l.repeat(s, rungEncode, func() error {
		if rq.path == pathSchedule {
			_, err := json.Marshal(resp)
			return err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	})
}

// library times the library calls behind a request on its configuration:
// each repeat builds a fresh cluster, so every rung pays what a cache miss
// pays, including the lazy simulator set-up inside the first iteration.
func (l *ladder) library(s *sample, spec service.WorkloadSpec) (*cluster.Cluster, error) {
	cfg, err := libConfig(spec)
	if err != nil {
		return nil, err
	}
	policy := policyOf(spec)
	var pol sched.Policy
	if policy != sched.None {
		if pol, err = sched.New(policy, spec.Seed); err != nil {
			return nil, err
		}
	}
	exp, opts := protocol(spec)
	times := map[string][]float64{}
	var c *cluster.Cluster
	for i := 0; i < ladderRepeats; i++ {
		steps := []struct {
			name string
			fn   func() error
		}{
			{rungBuild, func() (err error) { c, err = cluster.Build(cfg); return err }},
			{rungDigest, func() error { core.GraphDigest(c.Graph); return nil }},
			{rungOrder, func() error { _, err := pol.Order(c.ReferenceWorker(), &cfg.Platform); return err }},
			{rungCompute, func() (err error) { opts.Schedule, err = c.ComputeSchedule(policy, spec.Warmup, spec.Seed); return err }},
			{rungIteration, func() error {
				_, err := c.RunIteration(cluster.RunOptions{Schedule: opts.Schedule, Seed: spec.Seed, Jitter: 0})
				return err
			}},
			{rungDerive, func() error { _, err := c.WithPlatforms(cfg.Platform, cfg.Platforms); return err }},
			{rungRun, func() error { _, err := c.Run(exp, opts); return err }},
		}
		for _, st := range steps {
			if st.name == rungOrder && pol == nil {
				continue
			}
			if err := l.timed(st.name, times, st.fn); err != nil {
				return nil, err
			}
		}
	}
	for name, ds := range times {
		s.rungs[name] = median(ds)
	}

	runner, err := sim.NewRunner(c.Graph)
	if err != nil {
		return nil, err
	}
	jitter := opts.Jitter
	if jitter < 0 {
		jitter = cfg.Platform.Jitter
	}
	oracle := cfg.Platform.Oracle()
	err = l.repeat(s, rungRunner, func() error {
		_, err := runner.Run(sim.Config{Oracle: oracle, Schedule: opts.Schedule, Seed: spec.Seed, Jitter: jitter, ReorderProb: spec.ReorderProb})
		return err
	})
	return c, err
}

// variants runs a batch's variants one after another on clusters derived
// from the base, once each, and returns their summed time in microseconds:
// the work the batch handler fans out.
func (l *ladder) variants(base *cluster.Cluster, rq request) (float64, error) {
	var b batchEnvelope
	if err := json.Unmarshal(rq.body, &b); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, v := range b.Variants {
		spec := applyVariant(b.Workload, v)
		cfg, err := libConfig(spec)
		if err != nil {
			return 0, err
		}
		c, err := base.WithPlatforms(cfg.Platform, cfg.Platforms)
		if err != nil {
			return 0, err
		}
		exp, opts := protocol(spec)
		if opts.Schedule, err = c.ComputeSchedule(policyOf(spec), spec.Warmup, spec.Seed); err != nil {
			return 0, err
		}
		if _, err := c.Run(exp, opts); err != nil {
			return 0, err
		}
	}
	t1 := time.Now()
	l.tr.add(l.trace, l.root, rungVariants, t0, t1)
	return micros(t1.Sub(t0)), nil
}

// policyOf is the scheduling policy the daemon applies to a workload.
func policyOf(spec service.WorkloadSpec) string {
	if spec.Policy == "" {
		return sched.TIC
	}
	return spec.Policy
}

// protocol is the simulate protocol a workload asks for, with the schedule
// left for the caller to fill in.
func protocol(spec service.WorkloadSpec) (cluster.Experiment, cluster.RunOptions) {
	exp := cluster.DefaultExperiment
	if spec.WarmupIterations > 0 {
		exp.Warmup = spec.WarmupIterations
	}
	if spec.MeasureIterations > 0 {
		exp.Measure = spec.MeasureIterations
	}
	opts := cluster.RunOptions{Seed: spec.Seed, Jitter: -1, ReorderProb: spec.ReorderProb}
	if spec.Jitter != nil {
		opts.Jitter = *spec.Jitter
	}
	for _, st := range spec.Stragglers {
		opts.Stragglers = append(opts.Stragglers, cluster.Straggler{Worker: st.Worker, Factor: st.Factor, From: st.From, Until: st.Until})
	}
	return exp, opts
}

// baseSpec returns the workload a request body carries (a batch's base).
func baseSpec(rq request) (service.WorkloadSpec, error) {
	var env specEnvelope
	if err := json.Unmarshal(rq.body, &env); err != nil {
		return env.Workload, err
	}
	return env.Workload, nil
}

// libConfig is the library configuration the daemon resolves a workload
// to, for the fields this benchmark's workloads set: a Table 1 model in
// training mode on envG, with per-device overrides.
func libConfig(spec service.WorkloadSpec) (cluster.Config, error) {
	ms, ok := model.ByName(spec.Model)
	if !ok {
		return cluster.Config{}, fmt.Errorf("unknown model %q", spec.Model)
	}
	plat := timing.EnvG()
	cfg := cluster.Config{Model: ms, Mode: model.Training, Workers: max(spec.Workers, 1), PS: max(spec.PS, 1), Platform: plat}
	if spec.Overrides != nil && len(spec.Overrides.Devices) > 0 {
		pm := timing.NewPlatformMap(plat)
		for dev, d := range spec.Overrides.Devices {
			pm.SetDevice(dev, plat.SlowedCompute(d.SlowCompute).SlowedNet(d.SlowNet))
		}
		cfg.Platforms = pm
	}
	return cfg, nil
}

// applyVariant layers a batch variant over its base workload, as the
// daemon does, for the fields this benchmark's batches set.
func applyVariant(base service.WorkloadSpec, v service.BatchVariant) service.WorkloadSpec {
	spec := base
	if v.Policy != nil {
		spec.Policy = *v.Policy
	}
	if v.Seed != nil {
		spec.Seed = *v.Seed
	}
	if v.Stragglers != nil {
		spec.Stragglers = *v.Stragglers
	}
	if v.Overrides != nil {
		spec.Overrides = v.Overrides
	}
	return spec
}

// layerMetrics turns the samples into the ladder's per-layer metrics:
// each is the median over the samples that have it.
func layerMetrics(samples []sample) map[string]metric {
	by := map[string][]float64{}
	for _, s := range samples {
		for name, v := range s.rungs {
			by[name] = append(by[name], v)
		}
		if s.path == pathBatch {
			// A batch fans out over GOMAXPROCS workers: its efficiency is
			// the variants' serial work over the handler's wall time on
			// every processor.
			by["batch.parallel_efficiency"] = append(by["batch.parallel_efficiency"], s.work/(s.rungs[rungHandler]*float64(runtime.GOMAXPROCS(0))))
			continue
		}
		by["service.self"] = append(by["service.self"], s.rungs[rungHandler]-pathLibrary(s))
		by["http.self"] = append(by["http.self"], s.rungs[rungRoundtrip]-s.rungs[rungHandler])
		if owner, ok := s.rungs[rungOwner]; ok {
			by["fleet.forward"] = append(by["fleet.forward"], s.rungs[rungRoundtrip]-owner)
		}
	}
	m := map[string]metric{}
	// A rung no sample ran reads 0, never NaN, which JSON cannot hold.
	us := func(name string) { m[name+"_us"] = metric{zeroIfNaN(median(by[name])), "us"} }
	ms := func(name string) { m[name+"_ms"] = metric{zeroIfNaN(median(by[name])) / 1e3, "ms"} }
	for _, n := range []string{rungDecode, rungHandler, "service.self", rungEncode, rungRoundtrip, "http.self", "fleet.forward"} {
		us(n)
	}
	for _, n := range []string{rungBuild, rungDerive, rungCompute, rungIteration, rungRun, rungDigest, rungOrder, rungRunner} {
		ms(n)
	}
	m["batch.parallel_efficiency"] = metric{zeroIfNaN(median(by["batch.parallel_efficiency"])), "ratio"}
	return m
}

// pathLibrary is the library time on a sample's serving path: nothing for
// a schedule served from cache; build, digest, schedule and first
// iteration for a miss; and the simulate protocol for a simulation.
func pathLibrary(s sample) float64 {
	var t float64
	if !s.cached {
		t += s.rungs[rungBuild] + s.rungs[rungDigest] + s.rungs[rungCompute] + s.rungs[rungIteration]
	}
	if s.path == pathSimulate {
		t += s.rungs[rungRun]
	}
	return t
}

// missCoverage is, over the sampled schedule misses, the median share of
// the cold in-process handler that the library rungs on its path account
// for; NaN without misses.
func missCoverage(samples []sample) float64 {
	var shares []float64
	for _, s := range samples {
		if s.path == pathSchedule && !s.cached {
			shares = append(shares, pathLibrary(s)/s.rungs[rungHandler])
		}
	}
	return median(shares)
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
