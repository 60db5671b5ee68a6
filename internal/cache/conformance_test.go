package cache

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPolicyConformance is the one table-driven harness every eviction
// policy must pass. It ranges over the policy table, so a future policy is
// covered the moment it gets its table entry — there is no second list to
// keep in sync.
//
// The contract under test is the cache's, not the policy's ranking
// preferences: request coalescing still runs builds exactly once, errors
// are never cached, in-flight builds are never evicted from under their
// waiters, counters account for every lookup, and a 48-goroutine hammer
// (run under -race in CI's race gate) never serves a wrong value.
func TestPolicyConformance(t *testing.T) {
	policies := Policies()
	if want := []string{LRU, LFU, Belady}; !slices.Equal(policies, want) {
		t.Fatalf("Policies() = %v, want %v", policies, want)
	}
	for _, policy := range policies {
		t.Run(policy, func(t *testing.T) {
			t.Run("singleflight-coalescing", func(t *testing.T) { testConformanceCoalescing(t, policy) })
			t.Run("errors-never-cached", func(t *testing.T) { testConformanceErrors(t, policy) })
			t.Run("inflight-never-evicted", func(t *testing.T) { testConformanceInFlight(t, policy) })
			t.Run("counter-accounting", func(t *testing.T) { testConformanceCounters(t, policy) })
			t.Run("race-hammer", func(t *testing.T) { testConformanceHammer(t, policy) })
		})
	}
}

func newConformanceCache(t *testing.T, policy string, capacity int) *Cache[string, string] {
	t.Helper()
	c := newCache(t, policy, Config[string, string]{Capacity: capacity})
	if got := c.Policy(); got != policy {
		t.Fatalf("Policy() = %q, want %q", got, policy)
	}
	return c
}

// testConformanceCoalescing holds the build gate open while 64 callers
// arrive: however the policy ranks entries, the build must run exactly once
// and every caller must receive its value.
func testConformanceCoalescing(t *testing.T, policy string) {
	c := newConformanceCache(t, policy, 4)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var builds atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do("key", func() (string, error) {
			builds.Add(1)
			close(entered)
			<-gate
			return "value", nil
		})
		if err != nil || v != "value" {
			t.Errorf("leader Do = (%q, %v)", v, err)
		}
	}()
	<-entered

	const waiters = 64
	wg.Add(waiters)
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, o, err := c.Do("key", func() (string, error) {
				builds.Add(1)
				return "value", nil
			})
			if err != nil || v != "value" {
				t.Errorf("waiter %d: (%q, %v)", i, v, err)
			}
			if o == Miss {
				t.Errorf("waiter %d reported a miss; the build was already in flight", i)
			}
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times under coalescing, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != waiters {
		t.Fatalf("stats = %+v, want 1 miss and %d hit/coalesced", st, waiters)
	}
}

// testConformanceErrors proves a failed build leaves nothing resident and
// the next lookup rebuilds, whatever the policy.
func testConformanceErrors(t *testing.T, policy string) {
	c := newConformanceCache(t, policy, 4)
	boom := errors.New("boom")
	calls := 0
	build := func() (string, error) {
		calls++
		if calls == 1 {
			return "", boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do("k", build); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("errored build left %d resident entries", c.Len())
	}
	v, outcome, err := c.Do("k", build)
	if err != nil || v != "ok" || outcome != Miss {
		t.Fatalf("retry = (%q, %v, %v), want (ok, Miss, nil)", v, outcome, err)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", st)
	}
}

// testConformanceInFlight wedges a build open on a capacity-1 cache, then
// churns enough other keys through it to force evictions well past the
// capacity. The in-flight entry must be untouchable: its waiter gets
// the built value, never an eviction artifact.
func testConformanceInFlight(t *testing.T, policy string) {
	c := newConformanceCache(t, policy, 1)
	gate := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		v, _, err := c.Do("inflight", func() (string, error) {
			close(entered)
			<-gate
			return "built", nil
		})
		if err == nil && v != "built" {
			err = fmt.Errorf("in-flight build returned %q", v)
		}
		done <- err
	}()
	<-entered
	// Churn: every Do below admits and (capacity 1) evicts; none of them
	// may select the in-flight entry.
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("churn-%d", i)
		if v, _, err := c.Do(k, func() (string, error) { return k, nil }); err != nil || v != k {
			t.Fatalf("churn Do(%s) = (%q, %v)", k, v, err)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("churn forced no evictions (stats %+v); the scenario is vacuous", st)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight build: %v", err)
	}
	// The freshly admitted entry may itself then be evicted by policy
	// choice, but the cache must be back within budget.
	if n := c.Len(); n > 1 {
		t.Fatalf("resident = %d after completion, capacity 1", n)
	}
}

// testConformanceCounters runs a deterministic single-goroutine workload
// and checks the books: every lookup is classified exactly once, residency
// equals admissions minus departures, and the capacity bound is exact.
func testConformanceCounters(t *testing.T, policy string) {
	c := newConformanceCache(t, policy, 8)
	lookups := 0
	for round := 0; round < 3; round++ {
		for k := 0; k < 20; k++ {
			key := fmt.Sprintf("k%d", k)
			v, _, err := c.Do(key, func() (string, error) { return key, nil })
			if err != nil || v != key {
				t.Fatalf("Do(%s) = (%q, %v)", key, v, err)
			}
			lookups++
		}
	}
	if _, _, err := c.Do("err", func() (string, error) { return "", errors.New("x") }); err == nil {
		t.Fatal("error build reported success")
	}
	lookups++

	st := c.Stats()
	if got := st.Lookups(); got != uint64(lookups) {
		t.Fatalf("Lookups() = %d, want %d", got, lookups)
	}
	if st.Coalesced != 0 {
		t.Fatalf("sequential workload coalesced %d times", st.Coalesced)
	}
	wantResident := st.Misses - st.Errors - st.Evictions
	if got := uint64(c.Len()); got != wantResident {
		t.Fatalf("Len() = %d, want misses-errors-evictions = %d (stats %+v)", got, wantResident, st)
	}
	if st.Evictions == 0 {
		t.Fatalf("20 keys through capacity 8 evicted nothing (stats %+v)", st)
	}
	if c.Len() > 8 {
		t.Fatalf("resident %d exceeds capacity 8", c.Len())
	}
}

// testConformanceHammer is the race-enabled 48-goroutine run (the cache
// package is in CI's -race gate): concurrent Do/Get over a keyspace larger
// than the capacity, so eviction, coalescing and hits interleave freely.
// Every returned value must be the right one for its key.
func testConformanceHammer(t *testing.T, policy string) {
	c := newConformanceCache(t, policy, 8)
	var builds atomic.Int64
	const goroutines, perG, keys = 48, 60, 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g*7 + i*3) % keys
				key := fmt.Sprintf("k%d", k)
				want := fmt.Sprintf("v%d", k)
				v, _, err := c.Do(key, func() (string, error) {
					builds.Add(1)
					return want, nil
				})
				if err != nil || v != want {
					t.Errorf("Do(%s) = (%q, %v), want %q", key, v, err, want)
				}
				if i%5 == 0 {
					if v, ok := c.Get(key); ok && v != want {
						t.Errorf("Get(%s) = %q, want %q", key, v, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Lookups() != goroutines*perG {
		t.Fatalf("lookups = %d, want %d", st.Lookups(), goroutines*perG)
	}
	if uint64(builds.Load()) != st.Misses {
		t.Fatalf("builds = %d but misses = %d", builds.Load(), st.Misses)
	}
}
