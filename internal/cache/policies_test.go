package cache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// doAll replays keys sequentially through c, returning per-key outcomes.
func doAll(t *testing.T, c *Cache[string, string], keys ...string) []Outcome {
	t.Helper()
	outcomes := make([]Outcome, len(keys))
	for i, k := range keys {
		k := k
		v, o, err := c.Do(k, func() (string, error) { return "v:" + k, nil })
		if err != nil || v != "v:"+k {
			t.Fatalf("Do(%s) = (%q, %v)", k, v, err)
		}
		outcomes[i] = o
	}
	return outcomes
}

// TestNewWithUnknownPolicy pins where names are resolved: NewPolicy rejects
// an unknown name with an error listing the registry, and a cache built
// without a policy runs LRU.
func TestNewWithUnknownPolicy(t *testing.T) {
	_, err := NewPolicy("astrology")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range Policies() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered policy %q", err, name)
		}
	}
	if got := NewWith(Config[string, int]{}).Policy(); got != LRU {
		t.Fatalf("default policy = %q, want %q", got, LRU)
	}
}

// newCache builds a cache running the named registered policy.
func newCache(t *testing.T, policy string, cfg Config[string, string]) *Cache[string, string] {
	t.Helper()
	p, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = p
	return NewWith(cfg)
}

// TestLFUVictimSelection pins the LFU contract: least frequency first,
// least recency within a frequency tie.
func TestLFUVictimSelection(t *testing.T) {
	c := newCache(t, LFU, Config[string, string]{Capacity: 3})
	doAll(t, c, "a", "b", "c") // freq: a=1 b=1 c=1
	doAll(t, c, "a", "a")      // freq: a=3
	doAll(t, c, "b")           // freq: b=2
	doAll(t, c, "d")           // over capacity: evict c (freq 1, older than d)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived; LFU should evict the least-frequent entry")
	}
	doAll(t, c, "e") // freq tie d=1,e=1: evict d (least recent in bucket)
	if _, ok := c.Get("d"); ok {
		t.Fatal("d survived; LFU tie must break by least recency")
	}
	for _, k := range []string{"a", "b", "e"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted; want a/b/e resident", k)
		}
	}
}

// TestSizeAwareVictimSelection pins the size-aware contract: the
// largest-cost entry goes first, cost ties break by least recency.
func TestSizeAwareVictimSelection(t *testing.T) {
	costs := map[string]int64{"a": 5, "b": 10, "c": 3, "d": 7, "e": 7}
	c := newCache(t, SizeAware, Config[string, string]{
		Capacity: 3,
		Cost:     func(k string, _ string) int64 { return costs[k] },
	})
	doAll(t, c, "a", "b", "c")
	doAll(t, c, "d") // evict b (cost 10, the largest)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; size-aware should evict the largest entry")
	}
	doAll(t, c, "e") // cost tie d=7,e=7: evict d (least recent among max)
	if _, ok := c.Get("d"); ok {
		t.Fatal("d survived; size-aware tie must break by least recency")
	}
	for _, k := range []string{"a", "c", "e"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted; want a/c/e resident", k)
		}
	}
	if got, want := c.CostLen(), int64(5+3+7); got != want {
		t.Fatalf("CostLen() = %d, want %d", got, want)
	}
}

// newBeladyCache builds a cache primed with the given future access
// sequence (string keys are their own IDs).
func newBeladyCache(capacity int, future []string) *Cache[string, string] {
	return NewWith(Config[string, string]{
		Capacity: capacity,
		Policy:   NewBelady(future),
		KeyID:    func(k string) string { return k },
	})
}

// TestBeladyPrimedBeatsLRU hand-computes a sequence where farthest-future
// eviction keeps a hot pair resident while LRU thrashes, and pins both
// policies' exact hit counts.
func TestBeladyPrimedBeatsLRU(t *testing.T) {
	seq := []string{"a", "b", "c", "b", "a", "b"}

	oracle := newBeladyCache(2, seq)
	doAll(t, oracle, seq...)
	// Belady: c is never used again and is evicted the moment it overflows
	// capacity, keeping {a, b} resident for three straight hits.
	if st := oracle.Stats(); st.Hits != 3 || st.Misses != 3 || st.Evictions != 1 {
		t.Fatalf("belady stats = %+v, want 3 hits / 3 misses / 1 eviction", st)
	}

	lru := NewWith(Config[string, string]{Capacity: 2})
	doAll(t, lru, seq...)
	// LRU evicts a for c, then c for a: only two hits.
	if st := lru.Stats(); st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("lru stats = %+v, want 2 hits / 4 misses", st)
	}
}

// TestBeladyUnprimedFallsBackToLRU proves the registry's unprimed oracle is
// exactly LRU: same workload, same outcome sequence, same counters.
func TestBeladyUnprimedFallsBackToLRU(t *testing.T) {
	seq := []string{"a", "b", "c", "a", "d", "b", "a", "c", "d", "a"}
	fromRegistry := newCache(t, Belady, Config[string, string]{Capacity: 2})
	lru := NewWith(Config[string, string]{Capacity: 2})
	got := doAll(t, fromRegistry, seq...)
	want := doAll(t, lru, seq...)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("access %d (%s): belady=%v lru=%v; unprimed oracle must match LRU", i, seq[i], got[i], want[i])
		}
	}
	if b, l := fromRegistry.Stats(), lru.Stats(); b != l {
		t.Fatalf("stats diverge: belady %+v, lru %+v", b, l)
	}
}

// TestEntryLargerThanCache exercises the cost-budget boundary: a single
// entry costlier than the whole budget is served to its caller but not
// retained, counted as an eviction, and leaves the books balanced.
func TestEntryLargerThanCache(t *testing.T) {
	c := NewWith(Config[string, string]{
		CostCapacity: 5,
		Cost:         func(_ string, v string) int64 { return int64(len(v)) },
	})
	big := "0123456789" // cost 10 > budget 5
	v, o, err := c.Do("big", func() (string, error) { return big, nil })
	if err != nil || v != big || o != Miss {
		t.Fatalf("Do(big) = (%q, %v, %v)", v, o, err)
	}
	if c.Len() != 0 || c.CostLen() != 0 {
		t.Fatalf("oversized entry retained: Len=%d CostLen=%d", c.Len(), c.CostLen())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the oversized admission counted as 1 eviction", st)
	}
	// The key stays buildable and small entries still cache normally.
	if _, o, _ := c.Do("small", func() (string, error) { return "abc", nil }); o != Miss {
		t.Fatalf("Do(small) outcome = %v", o)
	}
	if _, o, _ := c.Do("small", func() (string, error) { return "abc", nil }); o != Hit {
		t.Fatalf("small entry not retained under cost budget: %v", o)
	}
	if got := c.CostLen(); got != 3 {
		t.Fatalf("CostLen() = %d, want 3", got)
	}
}

// TestCostBudgetEviction checks the cost budget evicts until the sum fits,
// possibly several entries for one admission.
func TestCostBudgetEviction(t *testing.T) {
	c := NewWith(Config[string, string]{
		CostCapacity: 10,
		Cost:         func(_ string, v string) int64 { return int64(len(v)) },
	})
	mk := func(k string, n int) {
		t.Helper()
		if _, _, err := c.Do(k, func() (string, error) {
			b := make([]byte, n)
			for i := range b {
				b[i] = 'x'
			}
			return string(b), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 4)
	mk("b", 4)
	mk("c", 8) // 16 > 10: LRU evicts a then b
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived")
	}
	if got := c.CostLen(); got != 8 {
		t.Fatalf("CostLen() = %d, want 8", got)
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 evictions", st)
	}
}

// TestCapacityOne pins the smallest bounded cache: every admission past the
// first evicts, hits still work between admissions, and the books balance.
func TestCapacityOne(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			c := newCache(t, policy, Config[string, string]{Capacity: 1})
			doAll(t, c, "a", "a") // miss, hit
			doAll(t, c, "b")      // over capacity: exactly one of a/b survives
			_, aOK := c.Get("a")
			_, bOK := c.Get("b")
			if aOK == bOK {
				t.Fatalf("resident a=%v b=%v; capacity 1 must keep exactly one", aOK, bOK)
			}
			if c.Len() != 1 {
				t.Fatalf("Len = %d, want 1", c.Len())
			}
			if st := c.Stats(); st.Evictions != 1 || st.Hits != 1 {
				t.Fatalf("stats = %+v, want 1 eviction / 1 hit", st)
			}
		})
	}
}

// TestConcurrentEvictionDuringCoalescedBuild drives evictions through the
// cache while a coalesced build is still in flight: the waiters must
// receive the built value even though every other entry around them was
// churned out.
func TestConcurrentEvictionDuringCoalescedBuild(t *testing.T) {
	c := NewWith(Config[string, string]{Capacity: 2})
	gate := make(chan struct{})
	entered := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do("slow", func() (string, error) {
			close(entered)
			<-gate
			return "slow-value", nil
		})
		if err == nil && v != "slow-value" {
			err = fmt.Errorf("leader got %q", v)
		}
		leaderDone <- err
	}()
	<-entered

	const waiters = 8
	var wg sync.WaitGroup
	waiterErrs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("slow", func() (string, error) { return "slow-value", nil })
			if err == nil && v != "slow-value" {
				err = fmt.Errorf("waiter got %q", v)
			}
			waiterErrs[i] = err
		}(i)
	}

	// Concurrent churn forces evictions while the coalesced build is open.
	var churned atomic.Int64
	var churnWg sync.WaitGroup
	for g := 0; g < 4; g++ {
		churnWg.Add(1)
		go func(g int) {
			defer churnWg.Done()
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("churn-%d-%d", g, i)
				if v, _, err := c.Do(k, func() (string, error) { return k, nil }); err == nil && v == k {
					churned.Add(1)
				}
			}
		}(g)
	}
	churnWg.Wait()
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i, err := range waiterErrs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if churned.Load() != 100 {
		t.Fatalf("churn completed %d/100", churned.Load())
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions during coalesced build (stats %+v); scenario is vacuous", st)
	}
}

// TestShardEvictionsSum checks that the capacity is an exact global bound:
// 200 distinct keys through capacity 8 leave exactly 8 resident and evict
// the other 192.
func TestShardEvictionsSum(t *testing.T) {
	c := NewWith(Config[int, int]{Capacity: 8})
	for k := 0; k < 200; k++ {
		c.Do(k, func() (int, error) { return k, nil })
	}
	if n, st := c.Len(), c.Stats(); n != 8 || st.Evictions != 192 {
		t.Fatalf("Len() = %d, evictions = %d; want 8 and 192", n, st.Evictions)
	}
}
