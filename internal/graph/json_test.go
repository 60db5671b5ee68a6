package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	g := New()
	r := g.MustAddOp("recv/p0", Recv)
	r.Device, r.Resource, r.Bytes, r.Param = "worker:0", "worker:0/net", 4096, "p0"
	c := g.MustAddOp("mm", Compute)
	c.Device, c.Resource, c.FLOPs = "worker:0", "worker:0/compute", 1e9
	s := g.MustAddOp("send/p0", Send)
	s.Device, s.Resource, s.Bytes, s.Param = "worker:0", "worker:0/net", 4096, "p0"
	g.MustConnect(r, c)
	g.MustConnect(c, s)

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.NumEdges() != 2 {
		t.Fatalf("shape: %d ops %d edges", got.Len(), got.NumEdges())
	}
	gr := got.Op("recv/p0")
	if gr.Kind != Recv || gr.Bytes != 4096 || gr.Param != "p0" || gr.Resource != "worker:0/net" {
		t.Fatalf("recv fields lost: %+v", gr)
	}
	if got.Op("mm").FLOPs != 1e9 {
		t.Fatal("flops lost")
	}
	if !got.Op("send/p0").IsLeaf() || !gr.IsRoot() {
		t.Fatal("edges lost")
	}
}

func TestReadJSONRejectsCorruption(t *testing.T) {
	cases := []string{
		`{`,
		`{"ops":[{"name":"a","kind":"alien","device":"d","resource":"r"}],"edges":[]}`,
		`{"ops":[{"name":"a","kind":"compute","device":"d","resource":"r"}],"edges":[["a","ghost"]]}`,
		`{"ops":[{"name":"a","kind":"compute","device":"d","resource":"r"},
		         {"name":"a","kind":"compute","device":"d","resource":"r"}],"edges":[]}`,
		// Cycle.
		`{"ops":[{"name":"a","kind":"compute","device":"d","resource":"r"},
		         {"name":"b","kind":"compute","device":"d","resource":"r"}],
		  "edges":[["a","b"],["b","a"]]}`,
		// Missing device (fails Validate).
		`{"ops":[{"name":"a","kind":"compute","resource":"r"}],"edges":[]}`,
		// Negative costs would simulate to a negative makespan.
		`{"ops":[{"name":"a","kind":"compute","device":"d","resource":"r","flops":-5000000000000}],"edges":[]}`,
		`{"ops":[{"name":"a","kind":"recv","device":"d","resource":"r","bytes":-1}],"edges":[]}`,
		// Trailing data after the graph object.
		`{"ops":[{"name":"a","kind":"compute","device":"d","resource":"r"}],"edges":[]} trailing garbage`,
		`{"ops":[],"edges":[]} {}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: corrupt graph accepted", i)
		}
	}
}

// Property: JSON round trip preserves stats and adjacency for random DAGs.
func TestQuickGraphJSONRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%30)
		g := randomDAG(rng, n, 0.2)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		if got.Len() != g.Len() || got.NumEdges() != g.NumEdges() {
			return false
		}
		for _, op := range g.Ops() {
			gop := got.Op(op.Name)
			if gop == nil || gop.NumIn() != op.NumIn() || gop.NumOut() != op.NumOut() {
				return false
			}
		}
		return CollectStats(got) == CollectStats(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
