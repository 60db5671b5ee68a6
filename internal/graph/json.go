package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the stable serialized form of a Graph: ops in ID order plus
// an edge list over op names.
type jsonGraph struct {
	Ops   []jsonOp    `json:"ops"`
	Edges [][2]string `json:"edges"`
}

type jsonOp struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Device   string `json:"device"`
	Resource string `json:"resource"`
	Bytes    int64  `json:"bytes,omitempty"`
	FLOPs    int64  `json:"flops,omitempty"`
	Param    string `json:"param,omitempty"`
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// WriteJSON serializes the graph. The encoding is deterministic: ops in ID
// order, edges in (from-ID, insertion) order.
func (g *Graph) WriteJSON(w io.Writer) error {
	jg := jsonGraph{Ops: make([]jsonOp, 0, len(g.ops))}
	for _, op := range g.ops {
		jg.Ops = append(jg.Ops, jsonOp{
			Name:     op.Name,
			Kind:     op.Kind.String(),
			Device:   op.Device,
			Resource: op.Resource,
			Bytes:    op.Bytes,
			FLOPs:    op.FLOPs,
			Param:    op.Param,
		})
	}
	for _, op := range g.ops {
		for _, succ := range op.Out() {
			jg.Edges = append(jg.Edges, [2]string{op.Name, succ.Name})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// ReadJSON deserializes a graph written by WriteJSON and validates it. It
// rejects data after the graph object and negative bytes or FLOPs, which
// would simulate to negative durations.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("graph: trailing data after graph")
	}
	g := New()
	for _, jo := range jg.Ops {
		kind, ok := kindByName[jo.Kind]
		if !ok {
			return nil, fmt.Errorf("graph: unknown op kind %q", jo.Kind)
		}
		if jo.Bytes < 0 || jo.FLOPs < 0 {
			return nil, fmt.Errorf("graph: op %q has negative bytes or flops", jo.Name)
		}
		op, err := g.AddOp(jo.Name, kind)
		if err != nil {
			return nil, err
		}
		op.Device, op.Resource = jo.Device, jo.Resource
		op.Bytes, op.FLOPs, op.Param = jo.Bytes, jo.FLOPs, jo.Param
	}
	for _, e := range jg.Edges {
		from, to := g.Op(e[0]), g.Op(e[1])
		if from == nil || to == nil {
			return nil, fmt.Errorf("graph: edge %v references unknown op", e)
		}
		if err := g.Connect(from, to); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
