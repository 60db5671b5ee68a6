package cache

import (
	"fmt"
	"strings"
	"sync"
)

// Handle names one resident entry to an EvictionPolicy. Handles are opaque,
// dense and never reused within one cache; the cache owns the mapping back
// to keys and values, so policies stay non-generic and registrable by name.
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
// calls, Victim must return the same handle. Registered policies must not
// read clocks or unseeded randomness; tie-breaks are by recency or
// admission order, never map iteration.
type EvictionPolicy interface {
	// Name returns the registry name this instance answers to.
	Name() string
	// Admit informs the policy that handle h became resident. id is a
	// stable string identity for the entry's key (oracle policies match it
	// against a primed future trace; online policies may ignore it) and
	// cost is the caller-defined entry cost (size-aware policies rank by
	// it; others may ignore it).
	Admit(h Handle, id string, cost int64)
	// Touch informs the policy that handle h was read (a cache hit).
	Touch(h Handle)
	// Victim returns the handle the policy would evict next, or ok=false
	// when it tracks no entries. The cache follows up with Remove(h).
	Victim() (h Handle, ok bool)
	// Remove withdraws handle h from the policy's bookkeeping (eviction or
	// external removal). Removing an unknown handle is a no-op.
	Remove(h Handle)
}

// PolicyFactory constructs one policy instance. NewPolicy calls it once
// per cache, so instances never share state.
type PolicyFactory func() EvictionPolicy

// Canonical eviction-policy names (see docs/cache-policies.md).
const (
	// LRU evicts the least recently used entry — the default, and the
	// pre-registry behavior of this package, byte-for-byte.
	LRU = "lru"
	// LFU evicts the least frequently used entry (ties: least recent).
	LFU = "lfu"
	// SizeAware evicts the largest-cost entry (ties: least recent), keeping
	// many small entries over few big ones.
	SizeAware = "size-aware"
	// Belady is the offline-optimal oracle: primed with the full future
	// access sequence (NewBelady) it evicts the entry reused farthest in
	// the future; unprimed it degrades to LRU.
	Belady = "belady"
)

var (
	regMu     sync.RWMutex
	factories = map[string]PolicyFactory{}
	regOrder  []string
)

// RegisterPolicy adds an eviction-policy factory under the given name
// (lower-cased). It panics on an empty name or a duplicate registration —
// both are programmer errors caught at init time.
func RegisterPolicy(name string, f PolicyFactory) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		panic("cache: empty eviction policy name")
	}
	if f == nil {
		panic("cache: nil factory for eviction policy " + name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic("cache: duplicate eviction policy " + name)
	}
	factories[name] = f
	regOrder = append(regOrder, name)
}

// Policies returns every registered eviction-policy name in registration
// order (the built-ins first, in their canonical presentation order). The
// slice is freshly allocated; callers may mutate it freely.
func Policies() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// NewPolicy instantiates the named eviction policy (case-insensitive).
// Unknown names return an error listing the registry, so CLI surfaces get
// a usable message for free.
func NewPolicy(name string) (EvictionPolicy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	regMu.RLock()
	f, ok := factories[key]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cache: unknown eviction policy %q (known: %s)",
			name, strings.Join(Policies(), ", "))
	}
	return f(), nil
}

func init() {
	RegisterPolicy(LRU, func() EvictionPolicy { return newLRUPolicy() })
	RegisterPolicy(LFU, func() EvictionPolicy { return newLFUPolicy() })
	RegisterPolicy(SizeAware, func() EvictionPolicy { return newSizePolicy() })
	RegisterPolicy(Belady, func() EvictionPolicy { return NewBelady(nil) })
}
