package trace

import (
	"fmt"

	"tictac/internal/cache"
)

// ReplayRow is the result of replaying one trace through one cache
// configuration — one row of the cache-policy shootout.
type ReplayRow struct {
	Trace        string  `json:"trace"`
	Policy       string  `json:"policy"`
	Capacity     int     `json:"capacity"`
	Events       int     `json:"events"`
	DistinctKeys int     `json:"distinct_keys"`
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Evictions    uint64  `json:"evictions"`
	HitRate      float64 `json:"hit_rate"`
}

// ReplayCache replays the trace's access sequence through a bare
// internal/cache instance under the named eviction policy and an
// entry-count capacity, returning hit/miss/eviction counts.
//
// The replay is sequential, so policy decisions are a pure function of
// (trace, policy, capacity) — and the one access stream every policy sees
// is identical. Capacity counts entries (every entry costs one budget
// unit); the trace's per-key Cost is still surfaced to the policy, which
// is how size-aware eviction stays differentiated. The "belady" policy is
// primed with the trace's full key sequence, making it the offline optimum
// the online policies are measured against: for any trace and capacity
// its hit rate is an upper bound.
func ReplayCache(w *Workload, policy string, capacity int) (ReplayRow, error) {
	row := ReplayRow{Policy: policy, Capacity: capacity}
	if w == nil {
		return row, fmt.Errorf("trace: nil workload")
	}
	if err := w.Validate(); err != nil {
		return row, err
	}
	if capacity <= 0 {
		return row, fmt.Errorf("trace: replay capacity must be > 0 (got %d)", capacity)
	}
	row.Trace = w.Name
	row.Events = len(w.Events)
	row.DistinctKeys = w.DistinctKeys()

	p, err := cache.NewPolicy(policy)
	if err != nil {
		return row, err
	}
	if policy == cache.Belady {
		// The oracle needs the future: prime it with the full access
		// sequence instead of taking the registry's unprimed instance.
		p = cache.NewBelady(w.Keys())
	}
	costs := w.Costs()
	c := cache.NewWith(cache.Config[string, string]{
		Capacity: capacity,
		Policy:   p,
		KeyID:    func(k string) string { return k },
		Cost:     func(k string, _ string) int64 { return costs[k] },
	})
	for _, e := range w.Events {
		k := e.Key()
		if _, _, err := c.Do(k, func() (string, error) { return k, nil }); err != nil {
			return row, err
		}
	}
	st := c.Stats()
	row.Hits, row.Misses, row.Evictions = st.Hits, st.Misses, st.Evictions
	if n := st.Lookups(); n > 0 {
		row.HitRate = float64(st.Hits) / float64(n)
	}
	return row, nil
}
