package cluster

import (
	"sync"
	"testing"

	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// partitionOnlyPolicies lists the policies that declare
// sched.PartitionOnly.
func partitionOnlyPolicies(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range sched.Names() {
		p, err := sched.New(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(sched.PartitionOnly); ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no policy declares sched.PartitionOnly")
	}
	return names
}

// TestPartitionOrderShared requires every sched.PartitionOnly policy to
// order each cluster graph once: two seeds and two warmup counts, on the
// cluster and on a WithPlatforms child, return one schedule, equal to
// ordering a freshly built reference worker.
func TestPartitionOrderShared(t *testing.T) {
	for _, iters := range []int{1, 2} {
		cfg := smallConfig(2, 1, model.Training)
		cfg.Iterations = iters
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		child, err := c.WithPlatforms(timing.EnvC(), nil)
		if err != nil {
			t.Fatal(err)
		}
		plat := timing.EnvG()
		for _, policy := range partitionOnlyPolicies(t) {
			first, err := c.ComputeSchedule(policy, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, cl := range []*Cluster{c, child} {
				for _, warmup := range []int{0, 3} {
					for _, seed := range []int64{1, 99} {
						s, err := cl.ComputeSchedule(policy, warmup, seed)
						if err != nil {
							t.Fatal(err)
						}
						if s != first {
							t.Fatalf("iterations %d, %s: warmup %d seed %d returned a second schedule", iters, policy, warmup, seed)
						}
					}
				}
			}
			p, err := sched.New(policy, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := p.Order(c.held.buildReferenceWorker(), &plat)
			if err != nil {
				t.Fatal(err)
			}
			if core.ScheduleDigest(first) != core.ScheduleDigest(fresh) {
				t.Fatalf("iterations %d, %s: shared schedule differs from ordering a fresh reference worker", iters, policy)
			}
		}
	}
}

// TestSeededOrdersNotShared requires the policies whose order depends on
// the seed, tac through its traced warmup and random through its shuffle,
// to compute a schedule per call.
func TestSeededOrdersNotShared(t *testing.T) {
	c, err := Build(smallConfig(2, 1, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{sched.TAC, sched.Random} {
		a, err := c.ComputeSchedule(policy, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.ComputeSchedule(policy, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("%s: seeds 1 and 2 share one schedule", policy)
		}
	}
}

// TestComputeScheduleReusesPartitionOrder requires a schedule-cache miss
// under tic on a cluster that has ordered tic once to skip the ordering: a
// small constant number of allocations, whatever the seed and warmup.
func TestComputeScheduleReusesPartitionOrder(t *testing.T) {
	c, err := Build(smallConfig(2, 1, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	held, err := c.ComputeSchedule(sched.TIC, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	allocs := testing.AllocsPerRun(10, func() {
		seed++
		s, err := c.ComputeSchedule(sched.TIC, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		if s != held {
			t.Fatal("ComputeSchedule(tic) ordered again")
		}
	})
	if allocs > 2 {
		t.Fatalf("ComputeSchedule(tic) allocates %.0f times once ordered; want <= 2", allocs)
	}
}

// TestConcurrentPartitionOrderShared races first calls for every
// sched.PartitionOnly policy on a fresh cluster and its WithPlatforms
// child and requires all of them to return one schedule per policy. Under
// go test -race this audits the holder's locking.
func TestConcurrentPartitionOrderShared(t *testing.T) {
	c, err := Build(smallConfig(2, 1, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	child, err := c.WithPlatforms(timing.EnvC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	policies := partitionOnlyPolicies(t)
	const calls = 8
	got := make([][calls]*core.Schedule, len(policies))
	var wg sync.WaitGroup
	for p, policy := range policies {
		for i := 0; i < calls; i++ {
			cl := c
			if i%2 == 1 {
				cl = child
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := cl.ComputeSchedule(policy, i, int64(i))
				if err != nil {
					t.Error(err)
				}
				got[p][i] = s
			}()
		}
	}
	wg.Wait()
	for p, policy := range policies {
		for i := 1; i < calls; i++ {
			if got[p][i] != got[p][0] {
				t.Fatalf("%s: concurrent first calls returned more than one schedule", policy)
			}
		}
	}
}
