// Package core implements the paper's primary contribution: the TIC and TAC
// communication-scheduling heuristics (§4, Algorithms 1–3), the priority
// schedules they produce, and the scheduling-efficiency metrics (§3.2,
// equations 1–4).
//
// Schedules serialize to a stable JSON form documented in
// docs/schedule-format.md (field meanings, validation rules and a worked
// example); see Schedule.WriteJSON and ReadSchedule. Alternative ordering
// heuristics beyond TIC/TAC live in the internal/sched policy table and
// produce the same Schedule type.
package core

import (
	"fmt"

	"tictac/internal/graph"
)

// Deps holds the communication dependencies of a worker partition: for every
// op, the set of recv ops it directly or transitively depends on (§4.1,
// "Communication Dependency op.dep").
type Deps struct {
	// ops are the graph's ops, indexed by op ID.
	ops []*graph.Op
	// recvs are the recv ops of the partition, indexed densely.
	recvs []*graph.Op
	// recvIndex maps op ID -> dense recv index.
	recvIndex map[int]int
	// dep[opID] is the bitset of recv indices op depends on. A recv op's
	// set contains itself.
	dep []bitset
	// topo is a cached topological order of the graph.
	topo []*graph.Op
}

// FindDependencies extracts the communication dependencies of g via a
// topological traversal (the depth-first post-fix traversal of §4.1 is
// equivalent; the topological sweep is single-pass).
//
// It returns an error if the graph is cyclic.
func FindDependencies(g *graph.Graph) (*Deps, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d := &Deps{
		ops:       g.Ops(),
		recvIndex: make(map[int]int),
		topo:      topo,
	}
	for _, op := range g.Ops() {
		if op.Kind == graph.Recv {
			d.recvIndex[op.ID] = len(d.recvs)
			d.recvs = append(d.recvs, op)
		}
	}
	n := len(d.recvs)
	d.dep = make([]bitset, len(g.Ops()))
	for _, op := range topo {
		set := newBitset(n)
		if idx, ok := d.recvIndex[op.ID]; ok {
			set.set(idx)
		}
		for _, pred := range op.In() {
			set.or(d.dep[pred.ID])
		}
		d.dep[op.ID] = set
	}
	return d, nil
}

// Recvs returns the recv ops of the partition in dense-index order.
func (d *Deps) Recvs() []*graph.Op { return d.recvs }

// NumRecvs returns the number of recv ops.
func (d *Deps) NumRecvs() int { return len(d.recvs) }
