package cluster

import (
	"fmt"
	"slices"
	"testing"

	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// TestSeedFreeIterationsMatchAcrossSeeds holds Iteration.SeedFree to its
// promise over every Table 1 model, both modes, four cluster shapes and
// every policy whose schedule is the same for every seed, plus the first
// half of tic's order: a partial schedule leaves some transfers
// unprioritized, so picks also choose between a prioritized op and
// unprioritized ones. Each shape runs plain, with a PS shard fail in
// iteration 0 and, when it has two workers or more, with a worker fail
// there, so that the aborted-attempt probe runs too. The degraded shard
// slows the reported run, which on Inception v1 makes it seed-free while
// the probe still chooses. Whenever a jitter-0, reorder-0 iteration
// reports seed-free, seeds 2–8 must report it as well and give the
// bit-identical makespan, worker finish times and worker-0 receive order
// of seed 1. A run with jitter or reorder injection must never report
// seed-free.
func TestSeedFreeIterationsMatchAcrossSeeds(t *testing.T) {
	shapes := []struct{ workers, ps int }{{1, 1}, {2, 1}, {4, 2}, {3, 2}}
	if raceEnabled {
		shapes = shapes[:2]
	}
	policies := []string{sched.TIC, sched.FIFO, sched.RevTopo, sched.SmallestFirst, sched.CriticalPath, sched.None}
	names := append(slices.Clip(policies), "tic-half")
	free := map[string]int{}
	for _, spec := range model.Catalog() {
		for _, mode := range []model.Mode{model.Training, model.Inference} {
			for _, sh := range shapes {
				c, err := Build(Config{Model: spec, Mode: mode, Workers: sh.workers, PS: sh.ps, Platform: timing.EnvG()})
				if err != nil {
					t.Fatal(err)
				}
				schedules := make([]*core.Schedule, len(names))
				for i, policy := range policies {
					if schedules[i], err = c.ComputeSchedule(policy, 0, 1); err != nil {
						t.Fatal(err)
					}
				}
				tic := schedules[0]
				schedules[len(policies)] = &core.Schedule{Algorithm: tic.Algorithm, Order: tic.Order[:len(tic.Order)/2]}
				scripts := [][]MembershipEvent{nil, {{Kind: PSShardFail, PS: 0, DegradedFactor: 4}}}
				if sh.workers > 1 {
					scripts = append(scripts, []MembershipEvent{{Kind: WorkerFail, Worker: sh.workers - 1}})
				}
				for i, sc := range schedules {
					for _, events := range scripts {
						label := fmt.Sprintf("%s/%s %d×%d %s", spec.Name, mode, sh.workers, sh.ps, names[i])
						if events != nil {
							label += " " + string(events[0].Kind)
						}
						if checkSeedFree(t, c, RunOptions{Schedule: sc, Seed: 1, Events: events}, label) {
							free[names[i]]++
						}
					}
				}
			}
		}
	}
	t.Logf("seed-free iterations by schedule: %v", free)
	for _, policy := range policies[:5] {
		if free[policy] == 0 {
			t.Errorf("%s: no iteration reported seed-free", policy)
		}
	}
}

// checkSeedFree runs opts at jitter 0 and reorder 0 and reports whether the
// iteration was seed-free, failing t when a seed-free iteration differs
// under seeds 2–8 or a noisy run of the same options reports seed-free.
func checkSeedFree(t *testing.T, c *Cluster, opts RunOptions, label string) bool {
	t.Helper()
	for _, noisy := range []RunOptions{{Jitter: 0.05}, {ReorderProb: 0.1}} {
		o := opts
		o.Jitter, o.ReorderProb = noisy.Jitter, noisy.ReorderProb
		it, err := c.RunIteration(o)
		if err != nil {
			t.Fatal(err)
		}
		if it.SeedFree {
			t.Errorf("%s: jitter %v, reorder %v reported seed-free", label, o.Jitter, o.ReorderProb)
		}
	}
	ref, err := c.RunIteration(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.SeedFree {
		return false
	}
	for seed := int64(2); seed <= 8; seed++ {
		o := opts
		o.Seed = seed
		it, err := c.RunIteration(o)
		if err != nil {
			t.Fatal(err)
		}
		if !it.SeedFree || it.Makespan != ref.Makespan ||
			!slices.Equal(it.WorkerFinish, ref.WorkerFinish) || !slices.Equal(it.RecvOrder, ref.RecvOrder) {
			t.Errorf("%s: seed 1 reported seed-free (makespan %v), seed %d differs (seed-free %v, makespan %v)",
				label, ref.Makespan, seed, it.SeedFree, it.Makespan)
			return true
		}
	}
	return true
}
