package cache

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoBuildsOncePerKey(t *testing.T) {
	c := NewWith(Config[string, int]{})
	builds := 0
	for i := 0; i < 5; i++ {
		v, outcome, err := c.Do("k", func() (int, error) {
			builds++
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Fatalf("Do #%d = (%d, %v), want (42, nil)", i, v, err)
		}
		want := Hit
		if i == 0 {
			want = Miss
		}
		if outcome != want {
			t.Fatalf("Do #%d outcome = %v, want %v", i, outcome, want)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if got := c.Stats(); got.Misses != 1 || got.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits", got)
	}
}

func TestCoalescingSingleBuild(t *testing.T) {
	// The first caller's build blocks on gate, so every concurrent caller
	// either coalesces onto the in-flight build or (if it arrives after the
	// release) hits the resident value. Either way: exactly one build.
	c := NewWith(Config[string, string]{})
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
	results := make([]string, waiters)
	outcomes := make([]Outcome, waiters)
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
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], outcomes[i] = v, o
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
	for i := range results {
		if results[i] != "value" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
		if outcomes[i] == Miss {
			t.Fatalf("waiter %d reported a miss; the build was already in flight", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != waiters {
		t.Fatalf("stats = %+v, want 1 miss and %d hit/coalesced", st, waiters)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("hit rate = %v, want > 0", st.HitRate())
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := NewWith(Config[string, int]{})
	boom := errors.New("boom")
	calls := 0
	build := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, _, err := c.Do("k", build); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("errored build left %d resident entries", c.Len())
	}
	v, outcome, err := c.Do("k", build)
	if err != nil || v != 7 || outcome != Miss {
		t.Fatalf("retry Do = (%d, %v, %v), want (7, Miss, nil)", v, outcome, err)
	}
	if got := c.Stats(); got.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", got)
	}
}

func TestPanickingBuildDoesNotWedgeKey(t *testing.T) {
	c := NewWith(Config[string, int]{})

	// Leader panics mid-build while a waiter is coalesced onto the entry.
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }() // the panic propagates to the builder
		c.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (int, error) { return 0, nil })
		waiterDone <- err
	}()
	// Give the waiter a moment to coalesce, then let the build panic.
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case err := <-waiterDone:
		// Either the waiter coalesced (ErrBuildPanic) or it arrived after
		// the entry was dropped and ran its own successful build.
		if err != nil && !errors.Is(err, ErrBuildPanic) {
			t.Fatalf("waiter err = %v, want nil or ErrBuildPanic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter blocked forever: panicking build wedged the key")
	}

	// The key must be buildable again.
	v, outcome, err := c.Do("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("rebuild after panic = (%d, %v), want (9, nil)", v, err)
	}
	if outcome == Coalesced {
		t.Fatalf("rebuild reported %v; the wedged entry survived", outcome)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewWith(Config[int, int]{Capacity: 3})
	build := func(k int) func() (int, error) {
		return func() (int, error) { return k * 10, nil }
	}
	for k := 0; k < 3; k++ {
		c.Do(k, build(k))
	}
	c.Do(0, build(0)) // refresh 0: LRU order is now 1, 2, 0
	c.Do(3, build(3)) // evicts 1
	if _, ok := c.Get(1); ok {
		t.Fatal("key 1 survived eviction; LRU order not respected")
	}
	for _, k := range []int{0, 2, 3} {
		if v, ok := c.Get(k); !ok || v != k*10 {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, k*10)
		}
	}
	if got := c.Stats(); got.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 eviction", got)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestStructKeys(t *testing.T) {
	type key struct {
		Name string
		N    int
	}
	c := NewWith(Config[key, string]{})
	mk := func(k key) func() (string, error) {
		return func() (string, error) { return fmt.Sprintf("%s/%d", k.Name, k.N), nil }
	}
	a := key{"alpha", 1}
	if v, o, _ := c.Do(a, mk(a)); v != "alpha/1" || o != Miss {
		t.Fatalf("Do(a) = (%q, %v)", v, o)
	}
	if v, o, _ := c.Do(key{"alpha", 1}, mk(a)); v != "alpha/1" || o != Hit {
		t.Fatalf("equal struct key missed: (%q, %v)", v, o)
	}
	if _, o, _ := c.Do(key{"alpha", 2}, mk(key{"alpha", 2})); o != Miss {
		t.Fatalf("distinct struct key hit: %v", o)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := NewWith(Config[int, int]{Capacity: 64})
	var builds atomic.Int64
	var wg sync.WaitGroup
	const goroutines, perG, keys = 32, 50, 16
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % keys
				v, _, err := c.Do(k, func() (int, error) {
					builds.Add(1)
					return k * k, nil
				})
				if err != nil || v != k*k {
					t.Errorf("Do(%d) = (%d, %v)", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != keys {
		t.Fatalf("%d builds for %d keys; coalescing or retention failed", n, keys)
	}
	st := c.Stats()
	if st.Lookups() != goroutines*perG {
		t.Fatalf("lookups = %d, want %d", st.Lookups(), goroutines*perG)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := NewWith(Config[int, int]{})
	for k := 0; k < 1000; k++ {
		c.Do(k, func() (int, error) { return k, nil })
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	if got := c.Stats(); got.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d entries", got.Evictions)
	}
}

// TestForEachWalksResidentEntries pushes 10,000 keys through capacity 4:
// ForEach must yield exactly the resident entries, in admission order
// rather than recency order, and fn may call back into the cache.
func TestForEachWalksResidentEntries(t *testing.T) {
	c := NewWith(Config[int, int]{Capacity: 4})
	for k := 0; k < 10000; k++ {
		c.Do(k, func() (int, error) { return -k, nil })
	}
	// Touch 9996 so recency order differs from admission order: the next
	// admission evicts 9997, the least recently used.
	c.Get(9996)
	c.Do(10000, func() (int, error) { return -10000, nil })
	var got []int
	c.ForEach(func(k, v int) {
		if v != -k {
			t.Errorf("ForEach(%d) value %d, want %d", k, v, -k)
		}
		if _, ok := c.Get(k); !ok {
			t.Errorf("ForEach yielded %d, which is not resident", k)
		}
		got = append(got, k)
	})
	if want := []int{9996, 9998, 9999, 10000}; !slices.Equal(got, want) {
		t.Fatalf("ForEach yielded %v, want %v", got, want)
	}
}
