package cluster

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// TestCompactedClusterRunsMatchTwin runs every Table 1 model in both
// modes, compacted and with its graph collected, under every registered
// policy's schedule, half of tic's order, tic's half plus the name of an
// op without a parameter, and tic's half plus a key no op has, and
// requires each iteration to equal the one an uncompacted twin runs. The
// op name is no parameter tag, so its schedule compiles against the graph,
// which the cluster rebuilds exactly once; the test runs alone, so the
// process-wide rebuild count is its own.
func TestCompactedClusterRunsMatchTwin(t *testing.T) {
	for _, spec := range model.Catalog() {
		for _, mode := range []model.Mode{model.Training, model.Inference} {
			cfg := Config{Model: spec, Mode: mode, Workers: 2, PS: 2, Platform: timing.EnvG()}
			twin, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var schedules []*core.Schedule
			for _, name := range sched.Names() {
				s, err := twin.ComputeSchedule(name, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				schedules = append(schedules, s)
			}
			tic, err := twin.ComputeSchedule(sched.TIC, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			half := slices.Clone(tic.Order[:len(tic.Order)/2])
			var compute string
			for _, op := range twin.Graph.Ops() {
				if op.Param == "" {
					compute = op.Name
					break
				}
			}
			schedules = append(schedules,
				&core.Schedule{Order: half},
				&core.Schedule{Order: append(slices.Clone(half), compute)},
				&core.Schedule{Order: append(slices.Clone(half), "no/such/key")})

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
				t.Fatalf("%s/%s: the compacted cluster's graph survived two GCs", spec.Name, mode)
			}
			rebuilt, _ := Rebuilds()
			for i, s := range schedules {
				opts := RunOptions{Schedule: s, Seed: 5, Jitter: -1}
				want, err := twin.RunIteration(opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.RunIteration(opts)
				if err != nil {
					t.Fatalf("%s/%s: schedule %d: %v", spec.Name, mode, i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: schedule %d: the compacted cluster's iteration differs from its twin's", spec.Name, mode, i)
				}
			}
			if now, _ := Rebuilds(); now-rebuilt != 1 {
				t.Fatalf("%s/%s: the schedules rebuilt the graph %d times, want once (for the op name)", spec.Name, mode, now-rebuilt)
			}
		}
	}
}
