package sched

import (
	"fmt"
	"strings"
	"sync"
)

// Canonical policy names. None is not a registry entry: it is the selector
// consumers treat as "no enforced order" (the paper's unscheduled baseline),
// so it yields a nil schedule rather than a Policy.
const (
	None          = "none"
	TIC           = "tic"
	TAC           = "tac"
	Random        = "random"
	FIFO          = "fifo"
	RevTopo       = "revtopo"
	SmallestFirst = "smallest-first"
	CriticalPath  = "critical-path"
)

// Factory constructs a policy instance. seed parameterizes stochastic
// policies (random) and tac's traced warmup; every other built-in ignores
// it. A policy whose factory ignores the seed and whose Order ignores the
// platform should implement PartitionOnly, so that cluster schedules of
// its order are computed once per graph rather than once per seed.
type Factory func(seed int64) Policy

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
	regOrder  []string
)

// Register adds a policy factory under the given name (lower-cased). It
// panics on an empty name or a duplicate registration — both are programmer
// errors caught at init time.
func Register(name string, f Factory) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == None {
		panic(fmt.Sprintf("sched: invalid policy name %q", name))
	}
	if f == nil {
		panic("sched: nil factory for policy " + name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic("sched: duplicate policy " + name)
	}
	factories[name] = f
	regOrder = append(regOrder, name)
}

// Names returns every registered policy name in registration order (the
// built-ins first, in their canonical presentation order). The slice is
// freshly allocated; callers may mutate it freely.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// New instantiates the named policy (case-insensitive). seed feeds
// stochastic policies; deterministic policies ignore it. Unknown names
// return an error listing the registry, so CLI surfaces get a usable
// message for free.
func New(name string, seed int64) (Policy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	regMu.RLock()
	f, ok := factories[key]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(seed), nil
}

// MustNew is New for statically known names; it panics on error.
func MustNew(name string, seed int64) Policy {
	p, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return p
}
