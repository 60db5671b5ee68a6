package bench

import (
	"reflect"
	"sync"
	"testing"

	"tictac/internal/cluster"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

func cacheTestConfig(workers int) cluster.Config {
	spec, _ := model.ByName("AlexNet v2")
	return cluster.Config{
		Model:    spec,
		Mode:     model.Training,
		Workers:  workers,
		PS:       1,
		Platform: timing.EnvG(),
	}
}

// TestBuildCacheSharesClustersAndSchedules: identical topologies resolve to
// the same *Cluster, identical (topology, policy, seed) tuples to the same
// *Schedule; distinct keys build distinct artifacts.
func TestBuildCacheSharesClustersAndSchedules(t *testing.T) {
	bc := newBuildCache()
	c1, err := bc.cluster(cacheTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := bc.cluster(cacheTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("equal configs built distinct clusters")
	}
	c3, err := bc.cluster(cacheTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("different configs shared a cluster")
	}
	cs1, s1, err := bc.schedule(cacheTestConfig(2), sched.TIC, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs1 != c1 {
		t.Fatal("schedule path resolved a different cluster for the same config")
	}
	_, s2, err := bc.schedule(cacheTestConfig(2), sched.TIC, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("equal schedule keys built distinct schedules")
	}
	_, s3, err := bc.schedule(cacheTestConfig(2), sched.RevTopo, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("different policies shared a schedule")
	}
}

// TestBuildCacheConcurrentSingleflight: concurrent requests for one key get
// the same artifact, built exactly once (the sync.Once per entry). Run
// under -race this is the cache's concurrency gate.
func TestBuildCacheConcurrentSingleflight(t *testing.T) {
	bc := newBuildCache()
	const goroutines = 8
	clusters := make([]*cluster.Cluster, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := bc.cluster(cacheTestConfig(2))
			if err != nil {
				t.Error(err)
				return
			}
			clusters[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if clusters[i] != clusters[0] {
			t.Fatal("concurrent callers received distinct clusters for one key")
		}
	}
}

// TestRunPairCachedMatchesUncached pins the memoization's bit-identity: a
// runPair through a shared cache must produce exactly the outcomes of a
// build through a cache of its own (schedule computation derives all
// randomness from the seed, so reuse cannot shift any stream).
func TestRunPairCachedMatchesUncached(t *testing.T) {
	o := quick()
	cfg := cacheTestConfig(2)
	baseWant, ticWant, _, err := runPair(cfg, sched.TIC, o, newBuildCache())
	if err != nil {
		t.Fatal(err)
	}
	bc := newBuildCache()
	for round := 0; round < 2; round++ { // round 2 is fully cache-hit
		base, tic, _, err := runPair(cfg, sched.TIC, o, bc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseWant, base) {
			t.Fatalf("round %d: cached baseline outcome differs", round)
		}
		if !reflect.DeepEqual(ticWant, tic) {
			t.Fatalf("round %d: cached tic outcome differs", round)
		}
	}
}
