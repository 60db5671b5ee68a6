package cluster

import (
	"runtime"
	"testing"

	"tictac/internal/model"
	"tictac/internal/timing"
)

// retained is the heap a built cluster keeps, per op of its graph.
type retained struct {
	// graph is what Build retains: the graph and the cluster around it.
	graph float64
	// total adds what one RunIteration leaves behind: the simulator view,
	// the cost table and the Runner's kept run state.
	total float64
}

// heapAfterGC returns HeapAlloc after two collections, the second of which
// frees what the first one's finalizer and weak-pointer passes let go.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retainedPerOp builds cfg, runs one iteration, and reports the heap the
// cluster retains per op: HeapAlloc after two GCs with the cluster (and
// then its iteration) held, minus HeapAlloc after two GCs before Build,
// divided by the op count.
func retainedPerOp(tb testing.TB, cfg Config) retained {
	tb.Helper()
	before := heapAfterGC()
	c, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	built := heapAfterGC()
	it, err := c.RunIteration(RunOptions{Seed: 1, Jitter: -1})
	if err != nil {
		tb.Fatal(err)
	}
	ran := heapAfterGC()
	runtime.KeepAlive(it)
	n := float64(c.Graph.Len())
	runtime.KeepAlive(c)
	return retained{graph: float64(built-before) / n, total: float64(ran-before) / n}
}

// TestRetainedBytesPerOp bounds what a cached cluster costs: ResNet-101 v2
// at 4 workers × 2 PS, training on envG, with one iteration run, retains at
// most 240 bytes per op. Byte budgets for the cluster cache price a
// cluster as Config.Ops() times this constant.
func TestRetainedBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	spec, ok := model.ByName("ResNet-101 v2")
	if !ok {
		t.Fatal("ResNet-101 v2 missing from the catalog")
	}
	cfg := Config{Model: spec, Mode: model.Training, Workers: 4, PS: 2, Platform: timing.EnvG()}
	r := retainedPerOp(t, cfg)
	t.Logf("retained %.1f B/op: graph %.1f, simulator view, cost table and run state %.1f",
		r.total, r.graph, r.total-r.graph)
	if r.total > 240 {
		t.Fatalf("a built cluster retains %.1f B/op after one iteration, above the 240 B/op bound", r.total)
	}
}
