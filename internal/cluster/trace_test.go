package cluster

import (
	"math"
	"testing"

	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
	"tictac/internal/timing"
)

// TestTraceRunsMatchesReference pins tac's traced warmup to the frozen
// simulator: for every Table 1 model in both modes, on a single and a
// chained two-iteration graph at 3 workers × 2 PS, each reference op's
// TraceRuns samples must equal, bit for bit and in order, the samples
// simref.Run records under the op's name in the full graph when it runs
// the warmup's seeds and jitter with a Tracer.
func TestTraceRunsMatchesReference(t *testing.T) {
	const warmup, seed = 2, 11
	for _, spec := range model.Catalog() {
		for _, mode := range []model.Mode{model.Training, model.Inference} {
			for _, iters := range []int{1, 2} {
				cfg := Config{Model: spec, Mode: mode, Workers: 3, PS: 2, Iterations: iters, Platform: timing.EnvG()}
				c, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.TraceRuns(warmup, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := timing.NewTracer()
				for i := 0; i < warmup; i++ {
					if _, err := simref.Run(c.Graph, sim.Config{Oracle: c.oracle(), Seed: seed + int64(i), Jitter: cfg.Platform.Jitter, Tracer: want}); err != nil {
						t.Fatal(err)
					}
				}
				ref := c.ReferenceWorker().Ops()
				if got.Len() != len(ref) {
					t.Fatalf("%s/%s/%d: %d ops traced for %d reference ops", spec.Name, mode, iters, got.Len(), len(ref))
				}
				for _, op := range ref {
					g, w := got.Samples(op.Name), want.Samples(c.refPrefix()+op.Name)
					if len(g) != warmup || len(w) != warmup {
						t.Fatalf("%s/%s/%d: %s: %d samples, simref %d; want %d", spec.Name, mode, iters, op.Name, len(g), len(w), warmup)
					}
					for k := range g {
						if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
							t.Fatalf("%s/%s/%d: %s: sample %d is %v, simref %v", spec.Name, mode, iters, op.Name, k, g[k], w[k])
						}
					}
				}
			}
		}
	}
}
