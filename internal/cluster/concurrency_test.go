package cluster

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"tictac/internal/model"
	"tictac/internal/timing"
)

// TestConcurrentRunIterationSharedCluster pins the documented contract that
// a built Cluster (and one computed schedule) may be shared by concurrent
// goroutines: RunIteration only reads the graph, and equal seeds give
// bit-identical iterations regardless of interleaving. Under go test -race
// this is the audit the parallel bench engine relies on for the
// repeated-run experiments (Figure 12, unique orders).
func TestConcurrentRunIterationSharedCluster(t *testing.T) {
	spec, ok := model.ByName("Inception v1")
	if !ok {
		t.Fatal("model missing")
	}
	c, err := Build(Config{
		Model: spec, Mode: model.Training,
		Workers: 2, PS: 1, Platform: timing.EnvG(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	// Sequential reference: one iteration per seed.
	refs := make([]*Iteration, runs)
	for i := range refs {
		it, err := c.RunIteration(RunOptions{Schedule: sched, Seed: int64(i), Jitter: -1})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = it
	}

	// The concurrent half shares a FRESH schedule (TIC is deterministic, so
	// it is identical to the reference one) whose lazy position index has
	// never been touched — the goroutines race its first build, which the
	// sync.Once in core.Schedule must make safe.
	sched2, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Iteration, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.RunIteration(RunOptions{Schedule: sched2, Seed: int64(i), Jitter: -1})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], refs[i]) {
			t.Fatalf("run %d: concurrent iteration differs from sequential reference", i)
		}
	}
}

// TestCompactedClusterConcurrentRebuild drives one compacted cluster whose
// graph two GCs have collected from 12 goroutines at once: four derive a
// WithPlatforms child and simulate on it (the child's first cost table
// reads ops), four compute a tac schedule (its traced warmup reads op
// names) and four simulate on the cluster itself, which reads no graph.
// Every result must equal an uncompacted twin's, and the graph must be
// rebuilt exactly once. The collector is off while the goroutines run, so
// the rebuilt graph stays held for every goroutine that asks for it; the
// test runs alone, so the process-wide rebuild count is its own.
func TestCompactedClusterConcurrentRebuild(t *testing.T) {
	spec, _ := model.ByName("Inception v1")
	cfg := Config{Model: spec, Mode: model.Training, Workers: 2, PS: 2, Platform: timing.EnvG()}
	opts := RunOptions{Seed: 3, Jitter: -1}
	twin, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twinChild, err := twin.WithPlatforms(timing.EnvC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantChild, err := twinChild.RunIteration(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantTAC, err := twin.ComputeSchedule("tac", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.RunIteration(opts)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if c.held.holdsGraph() {
		t.Fatal("the compacted cluster's graph survived two GCs")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before, _ := Rebuilds()

	const each = 4
	var wg sync.WaitGroup
	for i := 0; i < 3*each; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				child, err := c.WithPlatforms(timing.EnvC(), nil)
				if err != nil {
					t.Error(err)
					return
				}
				it, err := child.RunIteration(opts)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(it, wantChild) {
					t.Error("a compacted cluster's WithPlatforms child simulates differently from its twin's")
				}
			case 1:
				s, err := c.ComputeSchedule("tac", 2, 7)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(s.Order, wantTAC.Order) || !reflect.DeepEqual(s.Rank, wantTAC.Rank) {
					t.Error("a compacted cluster's tac schedule differs from its twin's")
				}
			default:
				it, err := c.RunIteration(opts)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(it, want) {
					t.Error("a compacted cluster simulates differently from its twin")
				}
			}
		}()
	}
	wg.Wait()
	if after, _ := Rebuilds(); after-before != 1 {
		t.Fatalf("%d goroutines rebuilt the graph %d times, want exactly once", 3*each, after-before)
	}
}
