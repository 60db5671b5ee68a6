package sched

import (
	"fmt"
	"strings"
)

// Canonical policy names. None is not a table entry: it is the selector
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

// policies is the fixed policy table in canonical presentation order: the
// paper's pair first, then the baselines and extensions. Names lists it and
// New looks names up in it. Each factory takes the seed that parameterizes
// stochastic policies (random) and tac's traced warmup; every other
// built-in ignores it. A policy whose factory ignores the seed and whose
// Order ignores the platform should implement PartitionOnly, so that
// cluster schedules of its order are computed once per graph rather than
// once per seed.
var policies = []struct {
	name string
	new  func(seed int64) Policy
}{
	{TIC, func(int64) Policy { return ticPolicy{} }},
	{TAC, func(int64) Policy { return tacPolicy{} }},
	{Random, func(seed int64) Policy { return randomPolicy{seed: seed} }},
	{FIFO, func(int64) Policy { return fifoPolicy{} }},
	{RevTopo, func(int64) Policy { return revTopoPolicy{} }},
	{SmallestFirst, func(int64) Policy { return smallestFirstPolicy{} }},
	{CriticalPath, func(int64) Policy { return criticalPathPolicy{} }},
}

// Names returns every policy name in canonical order. The slice is freshly
// allocated; callers may mutate it freely.
func Names() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// New instantiates the named policy (case- and space-insensitive). seed
// feeds stochastic policies; deterministic policies ignore it. Unknown
// names return an error listing the table, so CLI surfaces get a usable
// message for free.
func New(name string, seed int64) (Policy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, p := range policies {
		if p.name == key {
			return p.new(seed), nil
		}
	}
	return nil, fmt.Errorf("sched: unknown policy %q (known: %s)",
		name, strings.Join(Names(), ", "))
}
