package graph

import "fmt"

// TopoSort returns the ops in a deterministic topological order (Kahn's
// algorithm with ID-ordered tie-breaking). It returns an error if the graph
// contains a cycle.
func (g *Graph) TopoSort() ([]*Op, error) {
	indeg := make([]int, len(g.ops))
	for _, op := range g.ops {
		indeg[op.ID] = op.NumIn()
	}
	// Ready list kept in ascending ID order for determinism.
	var ready intHeap
	for _, op := range g.ops {
		if indeg[op.ID] == 0 {
			ready.push(op.ID)
		}
	}
	order := make([]*Op, 0, len(g.ops))
	for ready.len() > 0 {
		id := ready.pop()
		op := g.ops[id]
		order = append(order, op)
		for _, succ := range op.Out() {
			indeg[succ.ID]--
			if indeg[succ.ID] == 0 {
				ready.push(succ.ID)
			}
		}
	}
	if len(order) != len(g.ops) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d ops ordered)", len(order), len(g.ops))
	}
	return order, nil
}

// CriticalPathLen returns the number of ops on the longest root-to-leaf path.
func (g *Graph) CriticalPathLen() int {
	order, err := g.TopoSort()
	if err != nil {
		return 0
	}
	depth := make([]int, len(g.ops))
	longest := 0
	for _, op := range order {
		d := 1
		for _, pred := range op.In() {
			if depth[pred.ID]+1 > d {
				d = depth[pred.ID] + 1
			}
		}
		depth[op.ID] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}

// intHeap is a small binary min-heap of ints used for deterministic
// ready-list ordering inside TopoSort.
type intHeap struct{ xs []int }

func (h *intHeap) len() int { return len(h.xs) }

func (h *intHeap) push(x int) {
	h.xs = append(h.xs, x)
	i := len(h.xs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.xs[parent] <= h.xs[i] {
			break
		}
		h.xs[parent], h.xs[i] = h.xs[i], h.xs[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.xs) && h.xs[l] < h.xs[small] {
			small = l
		}
		if r < len(h.xs) && h.xs[r] < h.xs[small] {
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
