// Package simref is a frozen, line-for-line copy of the simulator core as
// it existed before the zero-allocation Runner rewrite. It is the golden
// baseline: the parity tests pin sim.Runner's outputs bit-for-bit against
// Run here, and BenchmarkSimRun reports the rewrite's speedup against it.
//
// Do not optimize or otherwise modify this package — its entire value is
// that it preserves the seed implementation's exact floating-point
// arithmetic and RNG draw sequence. It is test/benchmark infrastructure
// only; production callers use sim.Run or sim.Runner.
package simref

import (
	"fmt"
	"math/rand"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/sim"
)

// Run executes the graph once under the given configuration, exactly as the
// pre-Runner sim.Run did.
func Run(g *graph.Graph, cfg sim.Config) (*sim.Result, error) {
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("sim: Config.Oracle is required")
	}
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	ops := g.Ops()
	indeg := make([]int, len(ops))
	for _, op := range ops {
		indeg[op.ID] = op.NumIn()
	}

	// Resources in sorted order for determinism.
	resNames := g.Resources()
	resIndex := make(map[string]int, len(resNames))
	for i, r := range resNames {
		resIndex[r] = i
	}
	ready := make([][]*graph.Op, len(resNames))
	busy := make([]bool, len(resNames))
	for _, op := range ops {
		if indeg[op.ID] == 0 {
			ri := resIndex[op.Resource]
			ready[ri] = append(ready[ri], op)
		}
	}

	res := &sim.Result{
		RecvStartOrder: make(map[string][]string),
		DeviceFinish:   make(map[string]float64),
	}
	var events eventHeap
	seq := 0
	now := 0.0

	dispatch := func(ri int) {
		if busy[ri] || len(ready[ri]) == 0 {
			return
		}
		op, reordered := pick(ready[ri], cfg, rng)
		ready[ri] = remove(ready[ri], op)
		if reordered {
			res.ReorderEvents++
		}
		dur := cfg.Oracle.Time(op)
		if cfg.CostScale != nil {
			dur *= cfg.CostScale(op)
		}
		if cfg.Jitter > 0 {
			factor := 1 + float64(cfg.Jitter*rng.NormFloat64())
			if factor < 0.05 {
				factor = 0.05
			}
			dur *= factor
		}
		if cfg.Tracer != nil {
			cfg.Tracer.Record(op.Name, dur)
		}
		if op.Kind == graph.Recv {
			res.RecvStartOrder[op.Device] = append(res.RecvStartOrder[op.Device], core.Key(op))
		}
		busy[ri] = true
		events.push(event{at: now + dur, seq: seq, op: op, res: ri, start: now})
		seq++
	}
	for ri := range resNames {
		dispatch(ri)
	}

	completed := 0
	for events.len() > 0 {
		ev := events.pop()
		now = ev.at
		busy[ev.res] = false
		res.Spans = append(res.Spans, sim.Span{Op: ev.op, Start: ev.start, End: ev.at})
		if ev.at > res.DeviceFinish[ev.op.Device] {
			res.DeviceFinish[ev.op.Device] = ev.at
		}
		completed++
		for _, succ := range ev.op.Out() {
			indeg[succ.ID]--
			if indeg[succ.ID] == 0 {
				ri := resIndex[succ.Resource]
				ready[ri] = append(ready[ri], succ)
			}
		}
		// Work-conserving: try to dispatch on every idle resource.
		for ri := range resNames {
			dispatch(ri)
		}
	}
	if completed != len(ops) {
		return nil, fmt.Errorf("sim: deadlock, completed %d of %d ops", completed, len(ops))
	}
	res.Makespan = now
	return res, nil
}

// pick selects the next op from a ready list per the paper's rule. The
// second return value reports whether an injected reorder error displaced
// the top-priority transfer.
func pick(ready []*graph.Op, cfg sim.Config, rng *rand.Rand) (*graph.Op, bool) {
	if len(ready) == 1 {
		return ready[0], false
	}
	if cfg.Schedule == nil {
		return ready[rng.Intn(len(ready))], false
	}
	// Candidates: lowest priority number ∪ no priority.
	bestPos := -1
	var best, second *graph.Op
	var unprioritized []*graph.Op
	for _, op := range ready {
		pos, ok := cfg.Schedule.Position(op)
		if !ok {
			unprioritized = append(unprioritized, op)
			continue
		}
		switch {
		case bestPos < 0 || pos < bestPos:
			second = best
			best, bestPos = op, pos
		case second == nil || pos < mustPos(cfg.Schedule, second):
			second = op
		}
	}
	if best == nil {
		return unprioritized[rng.Intn(len(unprioritized))], false
	}
	// Injected gRPC-style inversion: dispatch the runner-up. Only network
	// transfers invert — the phenomenon lives in the RPC layer (§5.1), so
	// prioritized PS-side ops (which share the parameter's schedule key)
	// must not draw from the inversion stream.
	if second != nil && cfg.ReorderProb > 0 && isTransfer(best) && rng.Float64() < cfg.ReorderProb {
		return second, true
	}
	candidates := append(unprioritized, best)
	return candidates[rng.Intn(len(candidates))], false
}

func isTransfer(op *graph.Op) bool {
	return op.Kind == graph.Recv || op.Kind == graph.Send
}

func mustPos(s *core.Schedule, op *graph.Op) int {
	pos, ok := s.Position(op)
	if !ok {
		return 1 << 30
	}
	return pos
}

func remove(xs []*graph.Op, op *graph.Op) []*graph.Op {
	for i, x := range xs {
		if x == op {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// event is one completion in the simulated timeline.
type event struct {
	at    float64
	seq   int
	start float64
	op    *graph.Op
	res   int
}

// eventHeap is a binary min-heap ordered by (at, seq).
type eventHeap struct{ xs []event }

func (h *eventHeap) len() int { return len(h.xs) }

func (h *eventHeap) less(i, j int) bool {
	if h.xs[i].at != h.xs[j].at {
		return h.xs[i].at < h.xs[j].at
	}
	return h.xs[i].seq < h.xs[j].seq
}

func (h *eventHeap) push(e event) {
	h.xs = append(h.xs, e)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.xs[i], h.xs[p] = h.xs[p], h.xs[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.xs) && h.less(l, small) {
			small = l
		}
		if r < len(h.xs) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}
