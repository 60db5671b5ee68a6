package sim_test

// The summary run (Runner.Summarize) against the materializing Run: both
// execute one event loop, so a Result rebuilt from a Summary must equal
// Run's bit for bit on every Table 1 model, with per-op cost, scale and
// mask tables standing in for the Config closures. Plus the summary run's
// zero-allocation pin and the compiled-schedule lifetime.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
)

// summaryResult rebuilds the Result a summary describes, the way a caller
// holding device names would.
func summaryResult(r *sim.Runner, g *graph.Graph, s *sim.Summary) *sim.Result {
	res := &sim.Result{
		Makespan:       s.Makespan,
		ReorderEvents:  s.ReorderEvents,
		RecvStartOrder: map[string][]string{},
		DeviceFinish:   map[string]float64{},
	}
	ops := g.Ops()
	for _, id := range s.Done {
		res.Spans = append(res.Spans, sim.Span{Op: ops[id], Start: s.Start[id], End: s.End[id]})
	}
	for _, dev := range g.Devices() {
		di := r.DeviceIndex(dev)
		for _, id := range s.RecvOrder(di) {
			res.RecvStartOrder[dev] = append(res.RecvStartOrder[dev], core.Key(ops[id]))
		}
		if f := s.DeviceFinish[di]; f > 0 {
			res.DeviceFinish[dev] = f
		}
	}
	return res
}

// TestSummarizeMatchesRunAllTable1Models runs every Table 1 model's cluster
// graph both ways — Run with Oracle/CostScale/Disabled closures, Summarize
// with the equivalent dense tables — and requires identical outputs; the
// unmasked configurations are also pinned against the frozen engine.
func TestSummarizeMatchesRunAllTable1Models(t *testing.T) {
	for _, spec := range model.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c := parityCluster(t, spec.Name, 2, 1)
			s, err := c.ComputeSchedule("tic", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewRunner(c.Graph)
			if err != nil {
				t.Fatal(err)
			}
			oracle := c.Config.Platform.Oracle()
			scale := func(op *graph.Op) float64 {
				if op.Kind == graph.Recv || op.Kind == graph.Send {
					return 1.75
				}
				return 1
			}
			masked := func(op *graph.Op) bool { return op.Device == "worker:1" }
			ops := c.Graph.Ops()
			costs := make([]float64, len(ops))
			scales := make([]float64, len(ops))
			masks := make([]bool, len(ops))
			for _, op := range ops {
				costs[op.ID] = oracle.Time(op)
				scales[op.ID] = scale(op)
				masks[op.ID] = masked(op)
			}
			cfg := sim.Config{Oracle: oracle, Schedule: s, Seed: 13, Jitter: c.Config.Platform.Jitter, ReorderProb: 0.05}
			plan := sim.Plan{Costs: costs, Schedule: s, Seed: 13, Jitter: cfg.Jitter, ReorderProb: cfg.ReorderProb}
			for _, tc := range []struct {
				label  string
				scaled bool
				masked bool
			}{{"plain", false, false}, {"scaled", true, false}, {"masked", false, true}, {"scaled+masked", true, true}} {
				cfg, plan := cfg, plan
				if tc.scaled {
					cfg.CostScale, plan.Scale = scale, scales
				}
				if tc.masked {
					cfg.Disabled, plan.Masked = masked, masks
				}
				want, err := r.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.masked {
					frozen, err := simref.Run(c.Graph, cfg)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualResults(t, tc.label+"/simref", frozen, want)
				}
				var got *sim.Result
				if err := r.Summarize(&plan, func(sum *sim.Summary) { got = summaryResult(r, c.Graph, sum) }); err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, tc.label, want, got)
			}
		})
	}
}

// TestSummarizeSteadyStateAllocs pins the summary run's contract: once the
// Runner's buffers have warmed up, a run — schedule, jitter, reorder
// injection, factor groups and a mask included — allocates nothing.
func TestSummarizeSteadyStateAllocs(t *testing.T) {
	c, cfg := benchCluster(t, "AlexNet v2")
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ops := c.Graph.Ops()
	plan := sim.Plan{
		Costs:       make([]float64, len(ops)),
		Groups:      make([]int32, len(ops)),
		Scale:       []float64{1, 1.5},
		Masked:      []bool{false, true},
		Schedule:    cfg.Schedule,
		Seed:        cfg.Seed,
		Jitter:      cfg.Jitter,
		ReorderProb: 0.05,
	}
	for _, op := range ops {
		plan.Costs[op.ID] = cfg.Oracle.Time(op)
		if op.Device == "worker:3" {
			plan.Groups[op.ID] = 1 // a departed worker
		}
	}
	var makespan float64
	read := func(s *sim.Summary) { makespan = s.Makespan }
	if err := r.Summarize(&plan, read); err != nil { // warm up buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.Summarize(&plan, read); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Summarize allocates %.1f objects/run, want 0", allocs)
	}
	if makespan <= 0 {
		t.Fatalf("makespan %v", makespan)
	}
}

// TestSummarizeRejectsMismatchedTables: a cost or group table for another
// graph is an error, not an out-of-range read.
func TestSummarizeRejectsMismatchedTables(t *testing.T) {
	c, _ := benchCluster(t, "AlexNet v2")
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Graph.Len()
	for _, p := range []sim.Plan{
		{Costs: make([]float64, n-1)},
		{Costs: make([]float64, n), Groups: make([]int32, n+1)},
	} {
		if err := r.Summarize(&p, func(*sim.Summary) { t.Fatal("callback ran for a rejected plan") }); err == nil {
			t.Fatal("mismatched plan accepted")
		}
	}
}

// TestRunnerRetainsNoSchedule runs many distinct schedules through one
// long-lived Runner, drops them, and requires every one to be collected:
// compiled position tables live on the schedule, not in the Runner.
func TestRunnerRetainsNoSchedule(t *testing.T) {
	c, cfg := benchCluster(t, "AlexNet v2")
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	var collected atomic.Int32
	for i := 0; i < k; i++ {
		s, err := c.ComputeSchedule("random", 2, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(s, func(int) { collected.Add(1) }, i)
		cfg := cfg
		cfg.Schedule = s
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < k && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != k {
		t.Fatalf("%d of %d schedules collected; the Runner retains the rest", got, k)
	}
	runtime.KeepAlive(r)
}
