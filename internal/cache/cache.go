// Package cache provides a request-coalescing cache with pluggable eviction
// policies for expensive deterministic builds.
//
// It generalizes the memoization pattern the bench harness grew in
// internal/bench/cache.go — map + sync.Once per key — into a reusable layer
// with bounded capacity and observable statistics, so both the experiment
// engine and the tictacd scheduling service share one implementation.
//
// The contract mirrors singleflight fused with a bounded cache:
//
//   - Do(key, build) returns the cached value for key, building it at most
//     once per residency: concurrent callers for the same missing key
//     coalesce onto one build and all receive its result.
//   - Values are retained up to the configured budgets, which are exact;
//     which resident entry goes first is decided by the cache's
//     EvictionPolicy (default: LRU — see policy.go for the registry
//     mirroring internal/sched). Eviction only touches completed entries:
//     an in-flight build is never evicted from under its waiters.
//   - Errors are returned to every coalesced waiter but never cached: the
//     next Do for the key builds again.
//
// The cache is only as sound as the build functions are: callers must cache
// deterministic, immutable, concurrency-safe values (the repo-wide contract
// for Cluster, Schedule and Runner artifacts), since one cached value is
// handed to every subsequent caller.
package cache

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrBuildPanic is what coalesced waiters receive when the caller that ran
// the build panicked; the panic itself propagates to that caller, and the
// key is left uncached.
var ErrBuildPanic = errors.New("cache: build function panicked")

// Outcome classifies how one Do call was served.
type Outcome uint8

const (
	// Miss means this call executed the build function.
	Miss Outcome = iota
	// Hit means the value was already resident.
	Hit
	// Coalesced means the call piggybacked on a concurrent in-flight build
	// for the same key.
	Coalesced
)

// String returns the lower-case outcome name.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Stats is a point-in-time snapshot of cache activity. Counters are
// cumulative since construction.
type Stats struct {
	// Hits counts Do calls served from a resident value.
	Hits uint64
	// Misses counts Do calls that executed the build function.
	Misses uint64
	// Coalesced counts Do calls that waited on another caller's in-flight
	// build instead of starting their own.
	Coalesced uint64
	// Evictions counts resident values discarded by the capacity bounds.
	Evictions uint64
	// Errors counts builds that returned an error (never cached).
	Errors uint64
}

// Lookups returns the total number of Do calls observed.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate returns the fraction of Do calls that did not execute a build
// (hits plus coalesced waiters), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(n)
}

// Config parameterizes NewWith. The zero value of every field selects the
// documented default, so Config{} is a valid unbounded LRU.
type Config[K comparable, V any] struct {
	// Capacity bounds resident entries; <= 0 means unbounded.
	Capacity int
	// CostCapacity bounds the total Cost of resident entries; <= 0 means
	// unbounded. A single entry whose cost exceeds it is served but not
	// retained.
	CostCapacity int64
	// Policy is the eviction policy the cache drives; nil selects LRU.
	// Callers holding a name resolve it with NewPolicy. The cache takes
	// the instance over and feeds it every access, so an oracle primed
	// with a global access sequence (NewBelady) sees exactly that
	// sequence. Never share one instance between caches.
	Policy EvictionPolicy
	// Cost assigns each entry the cost its policy sees and CostCapacity
	// accounts; nil charges 1 per entry (so Capacity counts entries).
	Cost func(K, V) int64
	// KeyID renders a key as the stable identity string oracle policies
	// match against their primed trace; nil uses fmt.Sprint. It runs only
	// on the miss path, after the build.
	KeyID func(K) string
}

// Cache is a policy-driven cache with request coalescing. One mutex guards
// every entry and the policy, so for any sequence of Do and Get calls made
// one at a time, hits, misses, evictions and the resident set depend only
// on that sequence. The zero value is not usable; call NewWith.
type Cache[K comparable, V any] struct {
	// capacity / costCapacity are the budgets; <= 0 = unbounded.
	capacity     int
	costCapacity int64
	cost         func(K, V) int64
	keyID        func(K) string

	mu sync.Mutex
	//tictac:guardedby mu
	entries map[K]*entry[K, V]
	// byHandle maps the opaque handles the eviction policy speaks back to
	// resident entries, so len(byHandle) is the resident count; nextHandle
	// is never reused.
	//tictac:guardedby mu
	byHandle map[Handle]*entry[K, V]
	//tictac:guardedby mu
	nextHandle Handle
	policy     EvictionPolicy
	// residentCost is the Cost sum of resident entries.
	//tictac:guardedby mu
	residentCost int64

	hits, misses, coalesced, evictions, errors atomic.Uint64
}

type entry[K comparable, V any] struct {
	key    K
	handle Handle
	cost   int64
	// done is closed when the build completes; val/err are immutable after.
	done chan struct{}
	val  V
	err  error
	// complete is guarded by the cache mutex (waiters outside the lock use
	// the done channel instead).
	complete bool
}

// NewWith returns a cache configured by cfg.
func NewWith[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	c := &Cache[K, V]{
		capacity:     cfg.Capacity,
		costCapacity: cfg.CostCapacity,
		cost:         cfg.Cost,
		keyID:        cfg.KeyID,
		entries:      make(map[K]*entry[K, V]),
		byHandle:     make(map[Handle]*entry[K, V]),
		policy:       cfg.Policy,
	}
	if c.cost == nil {
		c.cost = func(K, V) int64 { return 1 }
	}
	if c.keyID == nil {
		c.keyID = func(k K) string { return fmt.Sprint(k) }
	}
	if c.policy == nil {
		c.policy = newLRUPolicy()
	}
	return c
}

// Policy returns the eviction policy name this cache runs.
func (c *Cache[K, V]) Policy() string { return c.policy.Name() }

// Do returns the value for key, building it with build on a miss.
// Concurrent calls for the same missing key run build exactly once and all
// receive its value (Outcome reports how each call was served). Build
// errors propagate to every waiter and leave the key uncached.
//
//tictac:hotpath
func (c *Cache[K, V]) Do(key K, build func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.complete {
			c.policy.Touch(e.handle)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, Hit, nil
		}
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-e.done
		return e.val, Coalesced, e.err
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	// Completion must run even if build panics: otherwise the in-flight
	// entry wedges its key forever (coalesced waiters and every future Do
	// block on a done channel nobody will close). The panic itself still
	// propagates to the building caller; waiters see ErrBuildPanic.
	var (
		val      V
		err      error
		finished bool
	)
	defer func() {
		if !finished && err == nil {
			err = ErrBuildPanic
		}
		c.mu.Lock()
		e.val, e.err = val, err
		e.complete = true
		if e.err != nil {
			// Never cache failures: the key disappears before any future Do
			// can observe it, so the next lookup rebuilds.
			delete(c.entries, key)
			c.errors.Add(1)
		} else {
			c.admit(e)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	val, err = build()
	finished = true
	return val, Miss, err
}

// admit hands a freshly completed entry to the eviction policy and
// restores the capacity invariants. Caller holds c.mu. Note the admitted
// entry itself is a legal victim: a single entry costlier than the whole
// cost budget is served to its waiters but not retained.
//
//tictac:locked
func (c *Cache[K, V]) admit(e *entry[K, V]) {
	e.handle = c.nextHandle
	c.nextHandle++
	e.cost = c.cost(e.key, e.val)
	c.byHandle[e.handle] = e
	c.policy.Admit(e.handle, c.keyID(e.key), e.cost)
	c.residentCost += e.cost
	for (c.capacity > 0 && len(c.byHandle) > c.capacity) ||
		(c.costCapacity > 0 && c.residentCost > c.costCapacity) {
		if !c.evict() {
			return
		}
	}
}

// Get returns the resident value for key without building. It never
// coalesces: an in-flight build is reported as absent.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.complete {
		c.policy.Touch(e.handle)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of resident values.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byHandle)
}

// CostLen returns the total Cost of resident values.
func (c *Cache[K, V]) CostLen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residentCost
}

// ForEach calls fn once per value resident when ForEach was called, in
// admission order (the order their builds completed); in-flight builds are
// skipped. fn runs outside the lock, so it may call back into the cache.
// The fleet drain path iterates the schedule cache through this.
func (c *Cache[K, V]) ForEach(fn func(K, V)) {
	c.mu.Lock()
	snap := make([]*entry[K, V], 0, len(c.byHandle))
	for _, e := range c.byHandle {
		snap = append(snap, e)
	}
	c.mu.Unlock()
	// Handles are immutable once admitted, so sorting needs no lock.
	slices.SortFunc(snap, func(a, b *entry[K, V]) int { return cmp.Compare(a.handle, b.handle) })
	for _, e := range snap {
		fn(e.key, e.val)
	}
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Errors:    c.errors.Load(),
	}
}

// evict removes the policy's chosen victim, reporting whether an eviction
// happened. Caller holds c.mu; in-flight entries were never admitted to the
// policy and cannot be chosen.
//
//tictac:locked
func (c *Cache[K, V]) evict() bool {
	h, ok := c.policy.Victim()
	if !ok {
		return false
	}
	e, ok := c.byHandle[h]
	if !ok {
		// A policy returning an unknown handle is a contract violation;
		// withdraw it so the eviction loop cannot spin on it forever.
		c.policy.Remove(h)
		return false
	}
	c.policy.Remove(h)
	delete(c.byHandle, h)
	delete(c.entries, e.key)
	c.residentCost -= e.cost
	c.evictions.Add(1)
	return true
}
