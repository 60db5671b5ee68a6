package sim_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/sim"
	"tictac/internal/timing"
)

// positionCase is one schedule and the table core.Schedule.Compile gives
// it on the cluster graph. outside marks a schedule with a key that is no
// parameter tag of the graph, which the Runner's key index cannot answer.
type positionCase struct {
	label   string
	s       *core.Schedule
	want    []int32
	outside bool
}

// droppedRunner builds cfg's cluster graph, a Runner over it and the
// position cases: every registered policy's schedule, half of tic's order,
// tic's half plus the name of an op without a parameter, and tic's half
// plus a key no op has. It then has the Runner drop the graph, as a
// compacted cluster's Runner does, with a loader that rebuilds the graph
// and counts the rebuilds. It returns a weak pointer to the graph, which
// nothing else holds.
func droppedRunner(t *testing.T, cfg cluster.Config, loads *int) (*sim.Runner, []positionCase, weak.Pointer[graph.Graph]) {
	t.Helper()
	c, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var cases []positionCase
	add := func(label string, s *core.Schedule, outside bool) {
		cases = append(cases, positionCase{label: label, s: s, want: s.Compile(c.Graph), outside: outside})
	}
	for _, name := range sched.Names() {
		s, err := c.ComputeSchedule(name, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			add(name, s, false)
		}
	}
	tic, err := c.ComputeSchedule(sched.TIC, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := slices.Clone(tic.Order[:len(tic.Order)/2])
	add("half", &core.Schedule{Algorithm: core.AlgoTIC, Order: half}, false)
	var compute string
	for _, op := range c.Graph.Ops() {
		if op.Param == "" {
			compute = op.Name
			break
		}
	}
	add("op-name", &core.Schedule{Order: append(slices.Clone(half), compute)}, true)
	add("unknown", &core.Schedule{Order: append(slices.Clone(half), "no/such/key")}, true)

	held := weak.Make(c.Graph)
	r.DropGraph(func() (*graph.Graph, error) {
		*loads++
		c, err := cluster.Build(cfg)
		if err != nil {
			return nil, err
		}
		return c.Graph, nil
	})
	return r, cases, held
}

// TestRunnerPositionsMatchCompile pins the position tables a Runner
// compiles from its transfer-key index to core.Schedule.Compile on the
// graph, for every Table 1 model in both modes under every registered
// policy, a half schedule and two schedules with a key that is no
// parameter tag. The Runner has dropped its graph and the graph has been
// collected, as for a compacted cluster: a schedule the index answers
// compiles without the graph, and one it cannot answer may reload the
// graph or fail, but never yields a wrong table.
func TestRunnerPositionsMatchCompile(t *testing.T) {
	for _, spec := range model.Catalog() {
		for _, mode := range []model.Mode{model.Training, model.Inference} {
			label := fmt.Sprintf("%s/%s", spec.Name, mode)
			cfg := cluster.Config{Model: spec, Mode: mode, Workers: 2, PS: 2, Platform: timing.EnvG()}
			loads := 0
			r, cases, held := droppedRunner(t, cfg, &loads)
			runtime.GC()
			runtime.GC()
			if held.Value() != nil {
				t.Fatalf("%s: the graph survived two GCs after the Runner dropped it", label)
			}
			for _, pc := range cases {
				before := loads
				got, err := sim.Positions(r, pc.s)
				switch {
				case err != nil && !pc.outside:
					t.Fatalf("%s/%s: %v", label, pc.label, err)
				case err != nil:
					continue
				case !slices.Equal(got, pc.want):
					t.Fatalf("%s/%s: Runner-compiled positions differ from Schedule.Compile", label, pc.label)
				case !pc.outside && loads != before:
					t.Fatalf("%s/%s: compiling a schedule of parameter keys reloaded the graph", label, pc.label)
				}
				if again, _ := sim.Positions(r, pc.s); &again[0] != &got[0] {
					t.Fatalf("%s/%s: the table was not memoized on the schedule", label, pc.label)
				}
			}
			runtime.KeepAlive(r)
		}
	}
}
