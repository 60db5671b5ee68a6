package cluster

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/timing"
)

// opNames lists ops' names in slice order.
func opNames(ops []*graph.Op) []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return names
}

// TestReferenceWorkerSharedEqualsFresh pins the shared reference worker to
// the graph a fresh build produces, field by field and edge order by edge
// order, on a single-iteration and a chained cluster: schedules, payloads
// and digests all derive from it.
func TestReferenceWorkerSharedEqualsFresh(t *testing.T) {
	for _, iters := range []int{1, 2} {
		cfg := smallConfig(2, 1, model.Training)
		cfg.Iterations = iters
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared, fresh := c.ReferenceWorker(), c.held.buildReferenceWorker()
		if shared.Len() != fresh.Len() || shared.NumEdges() != fresh.NumEdges() {
			t.Fatalf("iterations %d: shared has %d ops/%d edges, fresh %d/%d",
				iters, shared.Len(), shared.NumEdges(), fresh.Len(), fresh.NumEdges())
		}
		for i, got := range shared.Ops() {
			want := fresh.Ops()[i]
			if got.ID != want.ID || got.Name != want.Name || got.Kind != want.Kind ||
				got.Device != want.Device || got.Resource != want.Resource ||
				got.Bytes != want.Bytes || got.FLOPs != want.FLOPs || got.Param != want.Param {
				t.Fatalf("iterations %d: op %d is %+v, fresh build has %+v", iters, i, *got, *want)
			}
			if !reflect.DeepEqual(opNames(got.In()), opNames(want.In())) ||
				!reflect.DeepEqual(opNames(got.Out()), opNames(want.Out())) {
				t.Fatalf("iterations %d: op %s edges differ from a fresh build", iters, got.Name)
			}
		}
	}
}

// TestReferenceWorkerShared requires one graph per cluster graph while a
// caller holds it, shared with WithPlatforms children.
func TestReferenceWorkerShared(t *testing.T) {
	c, err := Build(smallConfig(2, 1, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	ref := c.ReferenceWorker()
	if again := c.ReferenceWorker(); again != ref {
		t.Fatal("second call built a new reference worker")
	}
	child, err := c.WithPlatforms(timing.EnvC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if child.ReferenceWorker() != ref {
		t.Fatal("WithPlatforms child built its own reference worker")
	}
}

// TestComputeScheduleReusesReferenceWorker requires a schedule-cache miss
// on a cluster whose reference worker is alive to cost the ordering only,
// not a copy of the partition: far fewer allocations than it has ops.
// random orders on every call (its order is seeded), so each call reads
// the reference worker.
func TestComputeScheduleReusesReferenceWorker(t *testing.T) {
	c, err := Build(smallConfig(2, 1, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	ref := c.ReferenceWorker()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.ComputeSchedule("random", 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(ref.Len()) / 4; allocs > limit {
		t.Fatalf("ComputeSchedule(random) allocates %.0f times for a %d-op reference worker; want <= %.0f",
			allocs, ref.Len(), limit)
	}
	runtime.KeepAlive(ref)
}

// TestReferenceWorkerHeldWeakly drops the last reference to the shared
// graph and requires the holder to let it go: a cached cluster nobody is
// scheduling pins no reference worker. The next call rebuilds it.
func TestReferenceWorkerHeldWeakly(t *testing.T) {
	c, err := Build(smallConfig(2, 1, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	n := func() int { return c.ReferenceWorker().Len() }()
	held := func() bool {
		c.held.mu.Lock()
		defer c.held.mu.Unlock()
		return c.held.ref.Value() != nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for held() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if held() {
		t.Fatal("holder still pins the reference worker after its last user dropped it")
	}
	if got := c.ReferenceWorker().Len(); got != n {
		t.Fatalf("rebuilt reference worker has %d ops, want %d", got, n)
	}
}

// TestConcurrentComputeScheduleSharedReference races ComputeSchedule on a
// fresh cluster and its WithPlatforms child, whose first calls race the one
// reference worker build, and requires every schedule to equal the one a
// separately built cluster computes sequentially. Under go test -race this
// audits the holder's locking.
func TestConcurrentComputeScheduleSharedReference(t *testing.T) {
	spec, _ := model.ByName("Inception v1")
	cfg := Config{Model: spec, Mode: model.Training, Workers: 2, PS: 1, Platform: timing.EnvG()}
	pair := func() [2]*Cluster {
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		child, err := c.WithPlatforms(timing.EnvC(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return [2]*Cluster{c, child}
	}
	policies := []string{"tic", "tac", "fifo", "random"}
	type job struct{ c, p int }
	var jobs []job
	for c := 0; c < 2; c++ {
		for p := range policies {
			jobs = append(jobs, job{c, p}, job{c, p})
		}
	}
	schedule := func(cs [2]*Cluster, j job) *core.Schedule {
		s, err := cs[j.c].ComputeSchedule(policies[j.p], 2, 7)
		if err != nil {
			t.Error(err)
		}
		return s
	}

	ref := pair()
	want := make([]*core.Schedule, len(jobs))
	for i, j := range jobs {
		want[i] = schedule(ref, j)
	}
	cs := pair()
	got := make([]*core.Schedule, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = schedule(cs, j)
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if !reflect.DeepEqual(got[i].Order, want[i].Order) || !reflect.DeepEqual(got[i].Rank, want[i].Rank) {
			t.Fatalf("cluster %d policy %s: concurrent schedule differs from sequential", j.c, policies[j.p])
		}
	}
}

// TestOracleFromTraceChained requires the traced oracle to answer every
// reference op from its trace on a chained graph too, where the reference
// replica's ops carry an iteration prefix: a min-of-k estimate must equal
// the traced minimum, not the analytic fallback.
func TestOracleFromTraceChained(t *testing.T) {
	for _, iters := range []int{1, 2} {
		cfg := smallConfig(2, 1, model.Training)
		cfg.Iterations = iters
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracer, err := c.TraceRuns(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		est := c.OracleFromTrace(tracer, timing.EstimateMin)
		fallback := c.oracle()
		prefix := c.refPrefix()
		differs := 0
		for _, op := range c.ReferenceWorker().Ops() {
			xs := tracer.Samples(prefix + op.Name)
			if len(xs) == 0 {
				t.Fatalf("iterations %d: no trace samples for %s", iters, op.Name)
			}
			m := xs[0]
			for _, x := range xs[1:] {
				m = min(m, x)
			}
			if got := est.Time(op); got != m {
				t.Fatalf("iterations %d: estimate for %s = %g, traced minimum %g (fallback %g)",
					iters, op.Name, got, m, fallback.Time(op))
			}
			if m != fallback.Time(op) {
				differs++
			}
		}
		if differs == 0 {
			t.Fatalf("iterations %d: every traced minimum equals the fallback; the check cannot tell them apart", iters)
		}
	}
}
