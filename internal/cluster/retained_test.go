package cluster

import (
	"runtime"
	"testing"

	"tictac/internal/model"
	"tictac/internal/timing"
)

// retained is the heap a built cluster keeps, per op of its graph.
type retained struct {
	// built is what the cluster retains before any run: the graph and the
	// cluster around it, or, compacted, the simulator view and cost table
	// in the graph's place.
	built float64
	// total adds what one RunIteration leaves behind: the simulator view
	// and cost table of an uncompacted cluster, and the Runner's kept run
	// state.
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

// retainedPerOp builds cfg, compacts it when asked, runs one iteration,
// and reports the heap the cluster retains per op: HeapAlloc after two GCs
// with the cluster (and then its iteration) held, minus HeapAlloc after
// two GCs before Build, divided by the op count. A compacted cluster's
// graph must be collected by then; retainedPerOp fails otherwise.
func retainedPerOp(tb testing.TB, cfg Config, compact bool) retained {
	tb.Helper()
	before := heapAfterGC()
	c, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if compact {
		if err := c.Compact(); err != nil {
			tb.Fatal(err)
		}
	}
	built := heapAfterGC()
	it, err := c.RunIteration(RunOptions{Seed: 1, Jitter: -1})
	if err != nil {
		tb.Fatal(err)
	}
	ran := heapAfterGC()
	if compact && c.held.holdsGraph() {
		tb.Fatal("a compacted cluster's graph survived two GCs after one iteration")
	}
	runtime.KeepAlive(it)
	runtime.KeepAlive(c)
	n := float64(cfg.Ops())
	return retained{built: float64(built-before) / n, total: float64(ran-before) / n}
}

// holdsGraph reports whether the holder's weak pointer to the full graph
// still resolves.
func (h *graphHolder) holdsGraph() bool {
	h.fullMu.Lock()
	defer h.fullMu.Unlock()
	return h.full.Value() != nil
}

// TestRetainedBytesPerOp bounds what a cluster costs: ResNet-101 v2 at 4
// workers × 2 PS, training on envG, with one iteration run, retains at
// most 240 bytes per op as Build returns it, and at most 100 bytes per op
// compacted, as the service caches it; the compacted cluster's graph is
// collected after two GCs. Byte budgets for the cluster cache price a
// cached cluster as Config.Ops() times the compacted constant.
func TestRetainedBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	spec, ok := model.ByName("ResNet-101 v2")
	if !ok {
		t.Fatal("ResNet-101 v2 missing from the catalog")
	}
	cfg := Config{Model: spec, Mode: model.Training, Workers: 4, PS: 2, Platform: timing.EnvG()}
	r := retainedPerOp(t, cfg, false)
	t.Logf("built: retained %.1f B/op: graph %.1f, simulator view, cost table and run state %.1f",
		r.total, r.built, r.total-r.built)
	if r.total > 240 {
		t.Fatalf("a built cluster retains %.1f B/op after one iteration, above the 240 B/op bound", r.total)
	}
	r = retainedPerOp(t, cfg, true)
	t.Logf("compacted: retained %.1f B/op: simulator view and cost table %.1f, run state %.1f",
		r.total, r.built, r.total-r.built)
	if r.total > 100 {
		t.Fatalf("a compacted cluster retains %.1f B/op after one iteration, above the 100 B/op bound", r.total)
	}
}
