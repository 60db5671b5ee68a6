package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tictac/internal/cluster"
)

// The replays below read the process-wide rebuild counts of package
// cluster, so they must not run beside another test; none calls
// t.Parallel.

// serve posts body to path on h and fails unless the answer is a 200.
func serve(t *testing.T, h http.Handler, path, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
	}
}

// collect runs two GCs, which clear every weakly held graph, reference
// worker and schedule nobody uses.
func collect() {
	runtime.GC()
	runtime.GC()
}

// TestScheduleMissesRebuildNoGraph replays a schedule-zipf mix in small: a
// skewed draw over models, shapes, the partition-only policies and none,
// and seeds, through caches of 8 entries, so clusters and schedules are
// evicted and built again, with two GCs every 8 requests. Schedule misses
// read only a compacted cluster's tables, its reference worker and its
// schedules, so no graph is ever rebuilt.
func TestScheduleMissesRebuildNoGraph(t *testing.T) {
	h := New(Options{CacheCapacity: 8}).Handler()
	models := []string{"AlexNet v2", "Inception v1", "ResNet-50 v1"}
	policies := []string{"tic", "critical-path", "fifo", "none"}
	rng := rand.New(rand.NewSource(7001))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(models)*2*2*len(policies)*6-1))
	graphs, refs := cluster.Rebuilds()
	for i := 0; i < 240; i++ {
		k := int(z.Uint64())
		m, k := models[k%len(models)], k/len(models)
		workers, k := 1+k%2, k/2
		ps, k := 1+k%2, k/2
		p, seed := policies[k%len(policies)], k/len(policies)
		if i%8 == 0 {
			collect()
		}
		serve(t, h, "/v1/schedule", fmt.Sprintf(`{"workload": {"model": %q, "policy": %q, "workers": %d, "ps": %d, "seed": %d}}`,
			m, p, workers, ps, seed))
	}
	graphsNow, refsNow := cluster.Rebuilds()
	t.Logf("%d reference workers built", refsNow-refs)
	if n := graphsNow - graphs; n != 0 {
		t.Fatalf("schedule misses rebuilt %d graphs, want none", n)
	}
}

// TestWhatIfRebuildsOneGraphPerDerivedCluster replays a whatif mix in
// small: simulates under tic, critical-path and none at several jitters
// and reorder probabilities, and after every fourth a batch whose variants
// add seeds, a straggler window and a slow worker, with two GCs before
// every request. Only a WithPlatforms child's first cost table reads ops,
// so the graphs rebuilt are at most the clusters derived.
func TestWhatIfRebuildsOneGraphPerDerivedCluster(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	models := []string{"AlexNet v2", "Inception v1", "ResNet-50 v1"}
	policies := []string{"tic", "critical-path", "none"}
	jitters := []float64{0, 0.05, 0.1}
	graphs, _ := cluster.Rebuilds()
	derived := s.DerivedClusterCount()
	for i := 0; i < 24; i++ {
		m := models[i%len(models)]
		collect()
		serve(t, h, "/v1/simulate", fmt.Sprintf(`{"workload": {"model": %q, "policy": %q, "workers": 4, "ps": 2, "seed": 5, "jitter": %g, "reorder_prob": %g, "measure_iterations": 2}}`,
			m, policies[i%len(policies)], jitters[i/3%len(jitters)], jitters[i/9%len(jitters)]))
		if i%4 == 3 {
			collect()
			serve(t, h, "/v1/batch", fmt.Sprintf(`{"workload": {"model": %q, "workers": 4, "ps": 2, "seed": 5, "measure_iterations": 2}, "variants": [
				{"policy": "tic", "seed": 6},
				{"policy": "none", "seed": 7},
				{"policy": "tic", "stragglers": [{"worker": 1, "factor": 2, "from": 1, "until": 3}]},
				{"policy": "tic", "overrides": {"devices": {"worker:3": {"slow_compute": 2}}}},
				{"policy": "critical-path", "overrides": {"devices": {"worker:3": {"slow_compute": 2}}}}]}`, m))
		}
	}
	graphsNow, _ := cluster.Rebuilds()
	rebuilt, derivedNow := graphsNow-graphs, s.DerivedClusterCount()-derived
	t.Logf("%d graphs rebuilt for %d derived clusters", rebuilt, derivedNow)
	if derivedNow == 0 {
		t.Fatal("no cluster was derived, so the replay does not reach the rebuild path")
	}
	if rebuilt > derivedNow {
		t.Fatalf("%d graphs rebuilt for %d derived clusters, want at most one each", rebuilt, derivedNow)
	}
}

// TestPredictionPinsSharedSchedule requires a cluster's prediction memo to
// keep a partition-only policy's schedule alive once no schedule-cache
// entry holds it: with the tic entry evicted from a 2-entry schedule cache
// and two GCs run, a new seed's tic miss orders nothing and builds no
// reference worker. Without the pin, the GC clears the weakly held order
// and reference worker, and the miss builds both again.
func TestPredictionPinsSharedSchedule(t *testing.T) {
	h := New(Options{CacheCapacity: 2}).Handler()
	const body = `{"workload": {"model": "Inception v1", "policy": %q, "workers": 2, "ps": 1, "seed": %d}}`
	serve(t, h, "/v1/schedule", fmt.Sprintf(body, "tic", 1))
	serve(t, h, "/v1/schedule", fmt.Sprintf(body, "none", 1))
	serve(t, h, "/v1/schedule", fmt.Sprintf(body, "none", 2)) // evicts the tic entry
	collect()
	_, refs := cluster.Rebuilds()
	serve(t, h, "/v1/schedule", fmt.Sprintf(body, "tic", 2))
	if _, now := cluster.Rebuilds(); now != refs {
		t.Fatalf("a tic miss after its order's last entry was evicted built %d reference workers, want none", now-refs)
	}
}
