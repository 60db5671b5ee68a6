package bench

import (
	"tictac/internal/cache"
	"tictac/internal/cluster"
	"tictac/internal/core"
)

// buildCache memoizes the immutable artifacts that engine points share: the
// built Cluster for a topology (model, mode, workers, PS, batch factor,
// platform/platform-map, iterations, NIC mode — i.e. the whole
// cluster.Config, which is comparable) and the computed Schedule for a
// (topology, policy, warmup, seed) tuple. Experiments whose point lists
// repeat a topology — the shootout sweeps every policy over each model, the
// hetero sweep adds scenarios on top — build each cluster once instead of
// once per point.
//
// It is a thin veneer over internal/cache (the request-coalescing
// LRU that also backs the tictacd service): unbounded capacity, because an
// experiment's working set is its point list and nothing outlives the
// invocation, with the cache's singleflight guaranteeing that concurrent
// engine workers for the same key block on one build. One deliberate
// semantic shift from the old sync.Once implementation: build errors are
// no longer memoized (internal/cache never caches failures), so a
// deterministically failing key would rebuild per point — irrelevant in
// practice because the first failing point aborts its experiment.
//
// Sharing is sound because both artifacts are documented immutable and
// concurrency-safe after construction, and both constructions are
// deterministic functions of the key (schedule computation derives all of
// its randomness from the seed in the key), so a cached artifact is
// bit-identical to a freshly built one at any engine pool width. The
// -race gate over internal/bench and the engine determinism tests enforce
// this. PlatformMap overrides participate in the key by pointer: points
// that should share a heterogeneous cluster must share the *PlatformMap
// (the hetero experiment hoists map construction out of its point loop for
// exactly this reason).
//
// The cache is scoped to one experiment invocation; nothing outlives it.
type buildCache struct {
	clusters *cache.Cache[cluster.Config, *cluster.Cluster]
	scheds   *cache.Cache[schedKey, *core.Schedule]
}

type schedKey struct {
	cfg    cluster.Config
	policy string
	warmup int
	seed   int64
}

func newBuildCache() *buildCache {
	return &buildCache{
		clusters: cache.NewWith(cache.Config[cluster.Config, *cluster.Cluster]{}),
		scheds:   cache.NewWith(cache.Config[schedKey, *core.Schedule]{}),
	}
}

// cluster returns the built cluster for cfg, building it at most once per
// cache (concurrent callers for the same key block on the same build).
func (bc *buildCache) cluster(cfg cluster.Config) (*cluster.Cluster, error) {
	c, _, err := bc.clusters.Do(cfg, func() (*cluster.Cluster, error) {
		return cluster.Build(cfg)
	})
	return c, err
}

// schedule returns the cluster for cfg plus the memoized schedule computed
// on it under the named policy.
func (bc *buildCache) schedule(cfg cluster.Config, policy string, warmup int, seed int64) (*cluster.Cluster, *core.Schedule, error) {
	c, err := bc.cluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	key := schedKey{cfg: cfg, policy: policy, warmup: warmup, seed: seed}
	s, _, err := bc.scheds.Do(key, func() (*core.Schedule, error) {
		return c.ComputeSchedule(policy, warmup, seed)
	})
	return c, s, err
}
