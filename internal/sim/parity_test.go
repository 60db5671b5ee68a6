package sim_test

// Golden bit-identity tests for the zero-allocation Runner rewrite: every
// observable output of Runner.Run — makespan, spans, recv start orders,
// device finish times, reorder counts — must match the frozen pre-refactor
// implementation (internal/sim/simref) bit for bit, on full cluster graphs
// of every Table 1 model, with and without schedules, jitter, reorder
// injection and cost scaling. The determinism contract of every experiment
// in the suite rests on this equivalence.

import (
	"fmt"
	"math"
	"testing"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
	"tictac/internal/timing"
)

// mustEqualResults compares two results bit for bit.
func mustEqualResults(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	if math.Float64bits(want.Makespan) != math.Float64bits(got.Makespan) {
		t.Fatalf("%s: makespan %v != %v", label, got.Makespan, want.Makespan)
	}
	if want.ReorderEvents != got.ReorderEvents {
		t.Fatalf("%s: reorder events %d != %d", label, got.ReorderEvents, want.ReorderEvents)
	}
	if len(want.Spans) != len(got.Spans) {
		t.Fatalf("%s: %d spans != %d", label, len(got.Spans), len(want.Spans))
	}
	for i := range want.Spans {
		w, g := want.Spans[i], got.Spans[i]
		if w.Op != g.Op ||
			math.Float64bits(w.Start) != math.Float64bits(g.Start) ||
			math.Float64bits(w.End) != math.Float64bits(g.End) {
			t.Fatalf("%s: span %d: got %v[%v,%v], want %v[%v,%v]",
				label, i, g.Op, g.Start, g.End, w.Op, w.Start, w.End)
		}
	}
	if len(want.RecvStartOrder) != len(got.RecvStartOrder) {
		t.Fatalf("%s: recv-order devices %d != %d", label, len(got.RecvStartOrder), len(want.RecvStartOrder))
	}
	for dev, wantOrder := range want.RecvStartOrder {
		gotOrder, ok := got.RecvStartOrder[dev]
		if !ok || len(gotOrder) != len(wantOrder) {
			t.Fatalf("%s: recv order for %s: got %v, want %v", label, dev, gotOrder, wantOrder)
		}
		for i := range wantOrder {
			if wantOrder[i] != gotOrder[i] {
				t.Fatalf("%s: recv order for %s differs at %d: %q != %q",
					label, dev, i, gotOrder[i], wantOrder[i])
			}
		}
	}
	if len(want.DeviceFinish) != len(got.DeviceFinish) {
		t.Fatalf("%s: device-finish keys %d != %d", label, len(got.DeviceFinish), len(want.DeviceFinish))
	}
	for dev, w := range want.DeviceFinish {
		g, ok := got.DeviceFinish[dev]
		if !ok || math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: device finish for %s: %v != %v", label, dev, g, w)
		}
	}
}

// parityCluster builds the standard test cluster for a model.
func parityCluster(t *testing.T, name string, workers, ps int) *cluster.Cluster {
	t.Helper()
	spec, ok := model.ByName(name)
	if !ok {
		t.Fatalf("model %q missing from catalog", name)
	}
	c, err := cluster.Build(cluster.Config{
		Model:    spec,
		Mode:     model.Training,
		Workers:  workers,
		PS:       ps,
		Platform: timing.EnvG(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunnerParityAllTable1Models pins Runner.Run against the frozen
// reference on every Table 1 model's cluster graph: baseline and
// TIC-scheduled, with platform jitter and the paper's reorder rate, across
// fixed seeds — including a repeated run through the same Runner, which
// must be bit-identical to a fresh one (buffer-reset correctness).
func TestRunnerParityAllTable1Models(t *testing.T) {
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
			configs := []struct {
				label string
				cfg   sim.Config
			}{
				{"baseline", sim.Config{Oracle: oracle, Seed: 7}},
				{"tic", sim.Config{Oracle: oracle, Schedule: s, Seed: 7}},
				{"tic+jitter+reorder", sim.Config{
					Oracle: oracle, Schedule: s, Seed: 11,
					Jitter: c.Config.Platform.Jitter, ReorderProb: 0.005,
				}},
			}
			for _, tc := range configs {
				want, err := simref.Run(c.Graph, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, tc.label, want, got)
				// Second pass through the recycled state.
				again, err := r.Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, tc.label+"/reuse", want, again)
			}
		})
	}
}

// TestRunnerParityAcrossSeeds sweeps seeds on a multi-PS cluster with an
// aggressive reorder rate, so the inversion branch and unprioritized
// tie-breaks are exercised heavily on both implementations.
func TestRunnerParityAcrossSeeds(t *testing.T) {
	c := parityCluster(t, "Inception v1", 4, 2)
	s, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	oracle := c.Config.Platform.Oracle()
	sawReorder := false
	for seed := int64(0); seed < 10; seed++ {
		cfg := sim.Config{
			Oracle: oracle, Schedule: s, Seed: seed,
			Jitter: 0.05, ReorderProb: 0.2,
		}
		want, err := simref.Run(c.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, "seeded", want, got)
		if got.ReorderEvents > 0 {
			sawReorder = true
		}
	}
	if !sawReorder {
		t.Fatal("reorder branch never taken at prob 0.2 — parity sweep is not exercising inversions")
	}
}

// TestRunnerParityCostScale exercises the straggler/contention injection
// path: per-op multipliers must feed through both implementations
// identically and never perturb the RNG stream.
func TestRunnerParityCostScale(t *testing.T) {
	c := parityCluster(t, "AlexNet v2", 2, 1)
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	scale := func(op *graph.Op) float64 {
		if op.Kind == graph.Recv || op.Kind == graph.Send {
			return 2.5
		}
		return 1
	}
	cfg := sim.Config{Oracle: c.Config.Platform.Oracle(), Seed: 3, Jitter: 0.1, CostScale: scale}
	want, err := simref.Run(c.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "costscale", want, got)
}

// TestRunnerSharedScheduleMemo: distinct schedules through one Runner must
// not bleed into each other via the compiled-table memo.
func TestRunnerSharedScheduleMemo(t *testing.T) {
	c := parityCluster(t, "AlexNet v2", 2, 1)
	tic, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := c.ComputeSchedule("revtopo", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	oracle := c.Config.Platform.Oracle()
	for i := 0; i < 2; i++ { // interleave twice: memo hits on round 2
		for _, tc := range []struct {
			label string
			cfg   sim.Config
		}{
			{"tic", sim.Config{Oracle: oracle, Schedule: tic, Seed: 5}},
			{"revtopo", sim.Config{Oracle: oracle, Schedule: rev, Seed: 5}},
			{"none", sim.Config{Oracle: oracle, Seed: 5}},
		} {
			want, err := simref.Run(c.Graph, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, tc.label, want, got)
		}
	}
}

// TestRunnerParityWideCluster pins Runner.Run against the frozen reference
// on a cluster with ten times the resources of the scenarios above, so
// the event queue holds well over a hundred pending completions and its
// heap is several levels deep. At jitter 0 the identical workers finish at
// equal times and the completion order falls to the dispatch sequence.
func TestRunnerParityWideCluster(t *testing.T) {
	c := parityCluster(t, "VGG-16", 16, 8)
	if n := len(c.Graph.Resources()); n != 152 {
		t.Fatalf("VGG-16 at 16x8 has %d resources, want 152", n)
	}
	s, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	oracle := c.Config.Platform.Oracle()
	for _, tc := range []struct {
		label string
		cfg   sim.Config
	}{
		{"tic/jitter0", sim.Config{Oracle: oracle, Schedule: s, Seed: 3}},
		{"none", sim.Config{Oracle: oracle, Seed: 3}},
		{"tic+jitter+reorder", sim.Config{Oracle: oracle, Schedule: s, Seed: 3, Jitter: 0.05, ReorderProb: 0.2}},
	} {
		want, err := simref.Run(c.Graph, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, tc.label, want, got)
	}
}

// TestRunnerMaskedParityWithZeroCost pins masked runs against the frozen
// reference, which predates masks. At jitter 0 a masked op behaves like a
// zero-cost op that records nothing: it completes at dispatch time and
// takes part in the same tie-break draws. So a run with one worker masked
// must equal the frozen run with that worker's costs scaled to 0 on every
// output outside the masked device.
func TestRunnerMaskedParityWithZeroCost(t *testing.T) {
	for _, tc := range []struct {
		model       string
		workers, ps int
		tic         bool
		reorder     float64
	}{
		{"Inception v1", 4, 2, true, 0},
		{"Inception v1", 4, 2, true, 0.2},
		{"ResNet-50 v1", 4, 2, false, 0},
		{"VGG-16", 16, 8, true, 0},
	} {
		label := fmt.Sprintf("%s/%dx%d/tic=%v/reorder=%v", tc.model, tc.workers, tc.ps, tc.tic, tc.reorder)
		c := parityCluster(t, tc.model, tc.workers, tc.ps)
		var s *core.Schedule
		if tc.tic {
			var err error
			if s, err = c.ComputeSchedule("tic", 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		r, err := sim.NewRunner(c.Graph)
		if err != nil {
			t.Fatal(err)
		}
		dev := cluster.WorkerDevice(1)
		cfg := sim.Config{Oracle: c.Config.Platform.Oracle(), Schedule: s, Seed: 5, ReorderProb: tc.reorder}
		masked := cfg
		masked.Disabled = func(op *graph.Op) bool { return op.Device == dev }
		zeroed := cfg
		zeroed.CostScale = func(op *graph.Op) float64 {
			if op.Device == dev {
				return 0
			}
			return 1
		}
		want, err := simref.Run(c.Graph, zeroed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(masked)
		if err != nil {
			t.Fatal(err)
		}
		if want.DeviceFinish[dev] == 0 {
			t.Fatalf("%s: the frozen run executed nothing on %s", label, dev)
		}
		if _, ok := got.DeviceFinish[dev]; ok {
			t.Fatalf("%s: the masked run reports a finish time for %s", label, dev)
		}
		for _, sp := range got.Spans {
			if sp.Op.Device == dev {
				t.Fatalf("%s: the masked run recorded a span for %s", label, sp.Op.Name)
			}
		}
		mustEqualResults(t, label, outsideDevice(want, dev), outsideDevice(got, dev))
	}
}

// outsideDevice returns the parts of a result that do not belong to dev:
// makespan, reorder count, the other devices' spans in completion order,
// recv orders and finish times.
func outsideDevice(r *sim.Result, dev string) *sim.Result {
	out := &sim.Result{
		Makespan:       r.Makespan,
		ReorderEvents:  r.ReorderEvents,
		RecvStartOrder: map[string][]string{},
		DeviceFinish:   map[string]float64{},
	}
	for _, sp := range r.Spans {
		if sp.Op.Device != dev {
			out.Spans = append(out.Spans, sp)
		}
	}
	for d, order := range r.RecvStartOrder {
		if d != dev {
			out.RecvStartOrder[d] = order
		}
	}
	for d, finish := range r.DeviceFinish {
		if d != dev {
			out.DeviceFinish[d] = finish
		}
	}
	return out
}
