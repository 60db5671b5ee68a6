// Package graph provides the partitioned computational DAG substrate used by
// the TicTac scheduler, the model zoo and the discrete-event simulator.
//
// A Graph is a directed acyclic multigraph-free graph of Ops. Each op carries
// a device tag (which partition it belongs to) and a resource tag (which
// serially-executing unit inside the device it occupies). These two tags are
// exactly the inputs the paper's scheduling problem takes (§3.1: "the
// partitioned graph is the computational graph with resource tags associated
// to each op").
//
// A graph is built with AddOp and Connect, then frozen: Freeze drops the
// name index, after which AddOp and Connect fail and Op looks names up by a
// scan. A frozen graph is read-only; Clone gives an unfrozen copy to build
// on.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a DAG of ops, mutable until Freeze. The zero value is not
// usable; call New or NewSized.
type Graph struct {
	ops []*Op
	// byName indexes ops by name while the graph is built; Freeze drops it,
	// so a nil byName marks a frozen graph.
	byName map[string]*Op
	edges  int
	// slab backs the first len(slab) ops AddOp creates (see NewSized).
	slab []Op
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]*Op)}
}

// NewSized returns an empty graph with room for n ops, for callers that
// know their op count up front. Its first n ops share one allocation; an
// op past n gets its own.
func NewSized(n int) *Graph {
	return &Graph{ops: make([]*Op, 0, n), byName: make(map[string]*Op, n), slab: make([]Op, n)}
}

// Freeze makes the graph read-only and drops its name index, which a
// graph that is done being built no longer needs: afterwards AddOp and
// Connect return an error and Op scans. Freezing a frozen graph is a
// no-op.
func (g *Graph) Freeze() { g.byName = nil }

// frozen reports whether Freeze has dropped the name index.
func (g *Graph) frozen() bool { return g.byName == nil }

// AddOp creates an op with the given unique name and kind and returns it.
// It returns an error if the name is empty or already present, or if the
// graph is frozen.
func (g *Graph) AddOp(name string, kind Kind) (*Op, error) {
	if g.frozen() {
		return nil, fmt.Errorf("graph: add op %q to a frozen graph", name)
	}
	if name == "" {
		return nil, fmt.Errorf("graph: empty op name")
	}
	if _, dup := g.byName[name]; dup {
		return nil, fmt.Errorf("graph: duplicate op name %q", name)
	}
	id := len(g.ops)
	var op *Op
	if id < len(g.slab) {
		op = &g.slab[id]
	} else {
		op = new(Op)
	}
	*op = Op{ID: id, Name: name, Kind: kind}
	g.ops = append(g.ops, op)
	g.byName[name] = op
	return op, nil
}

// MustAddOp is AddOp that panics on error; intended for graph builders whose
// names are generated and cannot collide.
func (g *Graph) MustAddOp(name string, kind Kind) *Op {
	op, err := g.AddOp(name, kind)
	if err != nil {
		panic(err)
	}
	return op
}

// Connect adds the edge from → to. Self-edges and duplicate edges are
// rejected; ops must belong to this graph, and the graph must not be
// frozen. from becomes the last of to's predecessors and to the last of
// from's successors.
func (g *Graph) Connect(from, to *Op) error {
	if from == nil || to == nil {
		return fmt.Errorf("graph: connect with nil op")
	}
	if g.frozen() {
		return fmt.Errorf("graph: connect %q->%q in a frozen graph", from.Name, to.Name)
	}
	if from == to {
		return fmt.Errorf("graph: self edge on %q", from.Name)
	}
	if !g.owns(from) || !g.owns(to) {
		return fmt.Errorf("graph: connect %q->%q: op not in graph", from.Name, to.Name)
	}
	for _, o := range from.Out() {
		if o == to {
			return fmt.Errorf("graph: duplicate edge %q->%q", from.Name, to.Name)
		}
	}
	from.adj = append(from.adj, to)
	to.addIn(from)
	g.edges++
	return nil
}

// owns reports whether op is this graph's op: the one AddOp placed at its
// ID. A look-alike from another graph, even with the same ID and name, is
// not.
func (g *Graph) owns(op *Op) bool {
	return op.ID >= 0 && op.ID < len(g.ops) && g.ops[op.ID] == op
}

// MustConnect is Connect that panics on error.
func (g *Graph) MustConnect(from, to *Op) {
	if err := g.Connect(from, to); err != nil {
		panic(err)
	}
}

// Op returns the op with the given name, or nil if absent. On a frozen
// graph it scans the ops in ID order.
func (g *Graph) Op(name string) *Op {
	if !g.frozen() {
		return g.byName[name]
	}
	for _, op := range g.ops {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// Ops returns all ops in insertion (ID) order. The slice is shared; callers
// must not mutate it.
func (g *Graph) Ops() []*Op { return g.ops }

// Len returns the number of ops.
func (g *Graph) Len() int { return len(g.ops) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// Roots returns ops with no predecessors, in ID order.
func (g *Graph) Roots() []*Op {
	var roots []*Op
	for _, op := range g.ops {
		if op.IsRoot() {
			roots = append(roots, op)
		}
	}
	return roots
}

// Leaves returns ops with no successors, in ID order.
func (g *Graph) Leaves() []*Op {
	var leaves []*Op
	for _, op := range g.ops {
		if op.IsLeaf() {
			leaves = append(leaves, op)
		}
	}
	return leaves
}

// OpsOfKind returns all ops of the given kind in ID order.
func (g *Graph) OpsOfKind(kind Kind) []*Op {
	var sel []*Op
	for _, op := range g.ops {
		if op.Kind == kind {
			sel = append(sel, op)
		}
	}
	return sel
}

// Devices returns the sorted set of device tags present in the graph.
func (g *Graph) Devices() []string {
	set := make(map[string]bool)
	for _, op := range g.ops {
		set[op.Device] = true
	}
	return sortedKeys(set)
}

// Resources returns the sorted set of resource tags present in the graph.
func (g *Graph) Resources() []string {
	set := make(map[string]bool)
	for _, op := range g.ops {
		set[op.Resource] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy of the graph. Op IDs, names and successor
// orders are preserved. The copy is not frozen, even when g is.
func (g *Graph) Clone() *Graph {
	c := NewSized(len(g.ops))
	for _, op := range g.ops {
		n := c.MustAddOp(op.Name, op.Kind)
		n.Device = op.Device
		n.Resource = op.Resource
		n.Bytes = op.Bytes
		n.FLOPs = op.FLOPs
		n.Param = op.Param
	}
	for _, op := range g.ops {
		from := c.ops[op.ID]
		for _, succ := range op.Out() {
			c.MustConnect(from, c.ops[succ.ID])
		}
	}
	return c
}

// Validate checks structural invariants: unique non-empty names, consistent
// adjacency, every op tagged with a device and a resource, communication ops
// on distinct resources from compute ops, and acyclicity. A frozen graph
// has no name index, so it checks names against a set built for the call.
func (g *Graph) Validate() error {
	var seen map[string]bool
	if g.frozen() {
		seen = make(map[string]bool, len(g.ops))
	}
	for i, op := range g.ops {
		if op.ID != i {
			return fmt.Errorf("graph: op %q has ID %d at index %d", op.Name, op.ID, i)
		}
		if op.Name == "" {
			return fmt.Errorf("graph: op %d has empty name", i)
		}
		if seen != nil {
			if seen[op.Name] {
				return fmt.Errorf("graph: op name %q is duplicated", op.Name)
			}
			seen[op.Name] = true
		} else if g.byName[op.Name] != op {
			// Every op indexed under its own name means no two ops share one.
			return fmt.Errorf("graph: op name %q is duplicated or was changed after AddOp", op.Name)
		}
		if op.Device == "" {
			return fmt.Errorf("graph: op %q has no device tag", op.Name)
		}
		if op.Resource == "" {
			return fmt.Errorf("graph: op %q has no resource tag", op.Name)
		}
		for _, succ := range op.Out() {
			if !g.owns(succ) {
				return fmt.Errorf("graph: op %q points outside graph", op.Name)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}
