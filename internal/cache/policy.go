package cache

import (
	"fmt"
	"strings"
)

// Handle names one resident entry to an EvictionPolicy. Handles are opaque,
// dense and never reused within one cache; the cache owns the mapping back
// to keys and values, so policies stay non-generic and selectable by name.
type Handle uint64

// EvictionPolicy orders one cache's resident entries for eviction. The
// cache drives it strictly under its lock, so implementations need no
// synchronization of their own.
//
// The cache upholds the residency contract on the policy's behalf: only
// completed, error-free entries are ever admitted (an in-flight build is
// invisible to the policy and therefore can never be chosen as a victim),
// and every admitted handle is eventually withdrawn by exactly one Remove —
// either because the policy itself named it in Victim or because the entry
// left residency some other way.
//
// Determinism contract: given the same sequence of Admit/Touch/Remove
// calls, Victim must return the same handle. Policies must not read clocks
// or unseeded randomness; tie-breaks are by recency or admission order,
// never map iteration.
type EvictionPolicy interface {
	// Name returns the table name this instance answers to.
	Name() string
	// Admit informs the policy that handle h became resident. id is a
	// stable string identity for the entry's key (oracle policies match it
	// against a primed future trace; online policies may ignore it).
	Admit(h Handle, id string)
	// Touch informs the policy that handle h was read (a cache hit).
	Touch(h Handle)
	// Victim returns the handle the policy would evict next, or ok=false
	// when it tracks no entries. The cache follows up with Remove(h).
	Victim() (h Handle, ok bool)
	// Remove withdraws handle h from the policy's bookkeeping (eviction or
	// external removal). Removing an unknown handle is a no-op.
	Remove(h Handle)
}

// Canonical eviction-policy names (see docs/cache-policies.md).
const (
	// LRU evicts the least recently used entry — the default, and the
	// behavior of this package before eviction became pluggable,
	// byte-for-byte.
	LRU = "lru"
	// LFU evicts the least frequently used entry (ties: least recent).
	LFU = "lfu"
	// Belady is the offline-optimal oracle: primed with the full future
	// access sequence (NewBelady) it evicts the entry reused farthest in
	// the future; unprimed it degrades to LRU.
	Belady = "belady"
)

// policies is the fixed eviction-policy table in canonical presentation
// order: the baseline, the improved online policy, then the offline
// oracle. Policies lists it and NewPolicy looks names up in it. Each
// factory is called once per cache, so instances never share state.
var policies = []struct {
	name string
	new  func() EvictionPolicy
}{
	{LRU, func() EvictionPolicy { return newLRUPolicy() }},
	{LFU, func() EvictionPolicy { return newLFUPolicy() }},
	{Belady, func() EvictionPolicy { return NewBelady(nil) }},
}

// Policies returns every eviction-policy name in canonical order. The
// slice is freshly allocated; callers may mutate it freely.
func Policies() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// NewPolicy instantiates the named eviction policy (case- and
// space-insensitive). Unknown names return an error listing the table, so
// CLI surfaces get a usable message for free.
func NewPolicy(name string) (EvictionPolicy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, p := range policies {
		if p.name == key {
			return p.new(), nil
		}
	}
	return nil, fmt.Errorf("cache: unknown eviction policy %q (known: %s)",
		name, strings.Join(Policies(), ", "))
}
