package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tictac/internal/service"
)

const (
	// parts is how many times an untraced run sets its daemons up and
	// measures them, for an equal share of the run's seconds each: a fresh
	// set of processes per part averages out how one set happened to be
	// placed on the machine. setup_s and rss_peak_mb are medians over parts.
	parts = 3
	// checkSamples is how many distinct requests are recomputed in
	// process after the measured phase, and checkBatches how many batches
	// have every variant compared with its /v1/simulate twin.
	checkSamples = 64
	checkBatches = 4
)

// measureWorkload runs one workload and returns its result: the end-to-end
// metrics, or with o.trace the per-layer metrics of a traced run.
func measureWorkload(ctx context.Context, bin string, w *workload, o options, out io.Writer) (result, error) {
	if o.trace {
		return traceWorkload(ctx, bin, w, o, out)
	}
	chk := newChecker()
	var t tally
	var setups, scaledSetups, speeds, rss, partOps []float64
	var requests int
	var scaledOps float64
	lat := map[string][]float64{}    // as measured, for the report
	scaled := map[string][]float64{} // at reference speed
	var counters map[string]metric
	partDur := time.Duration(o.seconds) * time.Second / parts
	for i := 0; i < parts; i++ {
		dep, setup, err := setUp(ctx, bin, w, false, chk, &t)
		if err != nil {
			return result{}, err
		}
		ph, f, m, proc, err := measurePart(ctx, dep, w, partDur, chk)
		if err == nil && i == parts-1 {
			hc := newHTTPClient()
			t.merge(crossCheck(ctx, hc, dep.nodes[0].url, w, chk, o.seed, checkSamples, checkBatches))
			hc.CloseIdleConnections()
		}
		dep.stop()
		if err != nil {
			return result{}, err
		}
		t.merge(ph.tally)
		requests += ph.attempted
		sl, so := ph.scaled(f)
		for path, l := range ph.lat {
			lat[path] = append(lat[path], l...)
			scaled[path] = append(scaled[path], sl[path]...)
		}
		var ops float64
		for k, v := range ph.windowOps {
			ops += v
			scaledOps += so[k]
		}
		// Set-up is timed before the probe runs; the part's median speed
		// scales it.
		speed := median(f)
		partOps = append(partOps, ops)
		setups = append(setups, setup)
		scaledSetups = append(scaledSetups, setup/speed)
		speeds = append(speeds, speed)
		rss = append(rss, float64(proc.hwmKB)/1024)
		counters = m
	}

	primary := sortedCopy(scaled[w.primary])
	m := map[string]metric{
		"setup_s":          {median(scaledSetups), "s"},
		"throughput_per_s": {scaledOps / (parts * partDur.Seconds()), "1/s"},
		"latency_p50_ms":   {percentile(primary, 0.5) * 1e3, "ms"},
		"latency_p90_ms":   {percentile(primary, 0.9) * 1e3, "ms"},
		"rss_peak_mb":      {median(rss), "MB"},
	}
	fmt.Fprintf(out, "%s: as measured: set-up %s s; %d requests, %s ops in %d parts of %v\n",
		w.name, joinFloats(setups, "%.3f"), requests, joinFloats(partOps, "%.0f"), parts, partDur)
	fmt.Fprintf(out, "%s: speed probe at %s times its reference %.0f us per part; the metrics are at reference speed\n",
		w.name, joinFloats(speeds, "%.3f"), probeReferenceUS)
	reportLatency(out, w.name+" as measured", lat)
	reportLatency(out, w.name+" at reference speed", scaled)
	reportMetrics(out, w.name+" counters (last part)", counters)
	return finish(out, w.name, t, m), nil
}

// measurePart runs the measured phase on a set-up deployment, in windows of
// about a second with the speed probe running, and returns it with each
// window's speed factor, the layer counters it moved and the daemons' procfs
// reading.
func measurePart(ctx context.Context, dep *deployment, w *workload, dur time.Duration, chk *checker) (phase, []float64, map[string]metric, procSample, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	before, err := dep.metrics(ctx, hc)
	if err != nil {
		return phase{}, nil, nil, procSample{}, err
	}
	n := max(1, int(dur/time.Second))
	win := dur / time.Duration(n)
	probe := startSpeedProbe()
	ph := runPhase(ctx, phaseConfig{target: dep.nodes[0].url, w: w, windows: n, window: win}, chk)
	samples, err := probe.stop()
	if err != nil {
		return phase{}, nil, nil, procSample{}, err
	}
	f := speedFactors(samples, ph.start, win, n)
	after, err := dep.metrics(ctx, hc)
	if err != nil {
		return phase{}, nil, nil, procSample{}, err
	}
	proc, err := dep.sample()
	return ph, f, counterMetrics(before, after, ph.attempted-ph.failed), proc, err
}

// traceWorkload is the traced run: one set-up with GC tracing on, a replay
// whose odd windows record every request, then the ladder on a sample of
// those requests. Its spans go to .bench_build/trace.
func traceWorkload(ctx context.Context, bin string, w *workload, o options, out io.Writer) (result, error) {
	tr := &tracer{origin: time.Now()}
	chk := newChecker()
	var t tally
	dep, _, err := setUp(ctx, bin, w, true, chk, &t)
	if err != nil {
		return result{}, err
	}
	defer dep.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	before, err := dep.metrics(ctx, hc)
	if err != nil {
		return result{}, err
	}
	p0, err := dep.sample()
	if err != nil {
		return result{}, err
	}
	// Half-second windows alternate between untraced and traced.
	ph := runPhase(ctx, phaseConfig{target: dep.nodes[0].url, w: w, windows: 2 * o.seconds, window: time.Second / 2, trace: true}, chk)
	end := time.Now()
	t.merge(ph.tally)
	p1, err := dep.sample()
	if err != nil {
		return result{}, err
	}
	after, err := dep.metrics(ctx, hc)
	if err != nil {
		return result{}, err
	}

	samples, err := runLadder(ctx, w, dep, ph, tr, o.seed, ladderSamples)
	if err != nil {
		return result{}, err
	}
	t.merge(crossCheck(ctx, hc, dep.nodes[0].url, w, chk, o.seed, checkSamples, checkBatches))

	m := counterMetrics(before, after, ph.attempted-ph.failed)
	for k, v := range layerMetrics(samples) {
		m[k] = v
	}
	var gcs int
	var gcCPU float64
	for _, d := range dep.nodes {
		n, cpu := d.gc.between(ph.start, end)
		gcs += n
		gcCPU += cpu
	}
	cpuMS := float64(p1.cpuTicks-p0.cpuTicks) * 1e3 / clockTick
	done := float64(max(ph.done, 1))
	m["daemon.cpu_us_per_op"] = metric{cpuMS * 1e3 / done, "us"}
	m["daemon.gc_per_1k_ops"] = metric{float64(gcs) * 1e3 / done, "per_1k"}
	m["daemon.gc_cpu_pct"] = metric{gcCPU / max(cpuMS, 1) * 100, "%"}
	m["trace_overhead_pct"] = metric{traceOverhead(ph.windowOps), "%"}

	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.write(path, w.name, o.seed); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "%s: traced %d requests in %d windows; ladder over %d samples; %d spans in %s\n",
		w.name, ph.attempted, len(ph.windowOps), len(samples), len(tr.spans), path)
	if cov := missCoverage(samples); !math.IsNaN(cov) {
		fmt.Fprintf(out, "%s: on sampled misses the library rungs cover %.0f%% of the cold in-process handler\n", w.name, cov*100)
	}
	return finish(out, w.name, t, m), nil
}

// setUp starts the workload's daemons, sends its set-up pass, and returns
// the running deployment with the seconds from daemon exec to the end of
// the warm pass.
func setUp(ctx context.Context, bin string, w *workload, gctrace bool, chk *checker, t *tally) (*deployment, float64, error) {
	start := time.Now()
	dep, err := startDeployment(bin, w.nodes, gctrace)
	if err != nil {
		return nil, 0, err
	}
	warm := runPhase(ctx, phaseConfig{target: dep.nodes[0].url, w: w, list: w.warm}, chk)
	t.merge(warm.tally)
	return dep, time.Since(start).Seconds(), nil
}

// counterMetrics derives the layer counters from /metrics before and after
// a phase, summed over the daemons; rates are per 1000 served requests.
func counterMetrics(before, after []service.MetricsResponse, requests int) map[string]metric {
	b, a := sumCounters(before), sumCounters(after)
	delta := func(k string) float64 { return a[k] - b[k] }
	n := float64(max(requests, 1))
	per1k := func(k string) metric { return metric{delta(k) * 1e3 / n, "per_1k"} }
	hitRate := func(cache string) metric {
		hits, misses := delta(cache+".hits"), delta(cache+".misses")
		if hits+misses == 0 {
			return metric{0, "ratio"}
		}
		return metric{hits / (hits + misses), "ratio"}
	}
	return map[string]metric{
		"cache.schedules.hit_rate":         hitRate("schedules"),
		"cache.schedules.evictions_per_1k": per1k("schedules.evictions"),
		"cache.schedules.coalesced_per_1k": per1k("schedules.coalesced"),
		"cache.clusters.hit_rate":          hitRate("clusters"),
		"cache.clusters.evictions_per_1k":  per1k("clusters.evictions"),
		"cache.clusters.resident":          {a["clusters.resident"], "count"},
		"builds.clusters_per_1k":           per1k("builds.clusters"),
		"builds.schedules_per_1k":          per1k("builds.schedules"),
		"builds.derived_per_1k":            per1k("builds.derived"),
		"fleet.forwarded_share":            {delta("forwarded") / n, "ratio"},
		"fleet.hedges_per_1k":              per1k("hedges"),
	}
}

// sumCounters adds up the /metrics counters the layer metrics read. Hits
// include coalesced lookups, as cache.Stats.HitRate counts them. Forwards
// are counted at the first daemon only, where the load enters.
func sumCounters(ms []service.MetricsResponse) map[string]float64 {
	c := map[string]float64{}
	for i, m := range ms {
		for name, cc := range map[string]service.CacheCounters{"schedules": m.Cache.Schedules, "clusters": m.Cache.Clusters} {
			c[name+".hits"] += float64(cc.Hits + cc.Coalesced)
			c[name+".misses"] += float64(cc.Misses)
			c[name+".coalesced"] += float64(cc.Coalesced)
			c[name+".evictions"] += float64(cc.Evictions)
			c[name+".resident"] += float64(cc.Resident)
		}
		c["builds.clusters"] += float64(m.Builds.Clusters)
		c["builds.schedules"] += float64(m.Builds.Schedules)
		c["builds.derived"] += float64(m.Builds.DerivedClusters)
		if m.Fleet == nil {
			continue
		}
		for _, p := range m.Fleet.Members {
			if i == 0 {
				c["forwarded"] += float64(p.Forwarded)
			}
			c["hedges"] += float64(p.Hedges)
		}
	}
	return c
}

// traceOverhead compares the median work of the untraced (even) windows
// with that of the traced (odd) ones, in percent of the untraced.
func traceOverhead(windowOps []float64) float64 {
	var plain, traced []float64
	for k, v := range windowOps {
		if k%2 == 0 {
			plain = append(plain, v)
		} else {
			traced = append(traced, v)
		}
	}
	u := median(plain)
	if len(traced) == 0 || u == 0 {
		return 0
	}
	return (u - median(traced)) / u * 100
}

// crossCheck recomputes a seeded sample of n distinct requests the run
// sent, each on a fresh in-process service.New, and compares the result
// with the daemon's first answer. For a workload with batches it also
// sends every variant of up to nb batches to /v1/simulate on the daemon
// and compares that with the variant's result.
func crossCheck(ctx context.Context, hc *http.Client, target string, w *workload, chk *checker, seed int64, n, nb int) tally {
	var t tally
	var seen []int
	for i := range chk.first {
		seen = append(seen, i)
	}
	sort.Ints(seen)
	rand.New(rand.NewSource(seed)).Shuffle(len(seen), func(i, j int) { seen[i], seen[j] = seen[j], seen[i] })
	batches := 0
	for k, i := range seen {
		rq := w.reqs[i]
		if k < n {
			t.attempted++
			if err := inProcessMatches(rq, i, chk.first[i]); err != nil {
				t.fail(err)
			}
		}
		if rq.path == pathBatch && batches < nb {
			batches++
			twins := batchTwins(ctx, hc, target, rq, chk.first[i])
			t.merge(twins)
		}
	}
	return t
}

// inProcessMatches serves rq on a fresh in-process Service and compares its
// result with want.
func inProcessMatches(rq request, i int, want []byte) error {
	rec := httptest.NewRecorder()
	service.New(service.Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s, request %d: status %d", rq.path, i, rec.Code)
	}
	got, _, err := resultOf(rq.path, rec.Body.Bytes())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("request %d: the daemon's result differs from a fresh in-process service's", i)
	}
	return nil
}

// batchTwins sends each variant of a batch to /v1/simulate as a workload
// of its own and checks that the result equals the variant's.
func batchTwins(ctx context.Context, hc *http.Client, target string, rq request, batchBody []byte) tally {
	var t tally
	var b batchEnvelope
	var resp service.BatchResponse
	if err := json.Unmarshal(rq.body, &b); err != nil {
		t.attempted++
		t.fail(err)
		return t
	}
	if err := json.Unmarshal(batchBody, &resp); err != nil || len(resp.Variants) != len(b.Variants) {
		t.attempted++
		t.fail(fmt.Errorf("batch response does not hold %d variants (%v)", len(b.Variants), err))
		return t
	}
	for k, v := range b.Variants {
		t.attempted++
		body, _ := json.Marshal(specEnvelope{Workload: applyVariant(b.Workload, v)}) // plain structs always marshal
		r, err := post(ctx, hc, target+pathSimulate, body)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		var got []byte
		if err == nil {
			got, _, err = resultOf(pathSimulate, r.body)
		}
		if err != nil {
			t.fail(fmt.Errorf("simulate twin of variant %d: %w", k, err))
			continue
		}
		var a, bb bytes.Buffer
		if json.Compact(&a, got) != nil || json.Compact(&bb, resp.Variants[k].Result) != nil || !bytes.Equal(a.Bytes(), bb.Bytes()) {
			t.fail(fmt.Errorf("batch variant %d differs from its /v1/simulate twin", k))
		}
	}
	return t
}

// finish prints the failures and the metrics of one workload and builds its
// result.
func finish(out io.Writer, name string, t tally, m map[string]metric) result {
	for _, f := range t.failures {
		fmt.Fprintf(out, "%s: FAILED: %s\n", name, f)
	}
	reportMetrics(out, name, m)
	return result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: m}
}

// reportLatency prints each endpoint's latency ladder up to the highest
// percentile with at least ten samples beyond it.
func reportLatency(out io.Writer, name string, lat map[string][]float64) {
	var paths []string
	for p := range lat {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s := sortedCopy(lat[p])
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s: n=%d", name, p, len(s))
		for _, q := range ladderQuantiles {
			if q > tailQuantile(len(s)) {
				break
			}
			fmt.Fprintf(&b, " p%g=%.3fms", q*100, percentile(s, q)*1e3)
		}
		fmt.Fprintln(out, b.String())
	}
}

func reportMetrics(out io.Writer, name string, m map[string]metric) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s: %-34s %12.4f %s\n", name, k, m[k].Value, m[k].Unit)
	}
}

func joinFloats(xs []float64, format string) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf(format, x))
	}
	return strings.Join(parts, " ")
}
