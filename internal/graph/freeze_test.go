package graph

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

func TestFrozenGraphRejectsMutation(t *testing.T) {
	g := buildDiamond(t)
	a, sink := g.Op("a"), g.Op("sink")
	g.Freeze()
	if _, err := g.AddOp("extra", Compute); err == nil {
		t.Fatal("AddOp on a frozen graph accepted")
	}
	if err := g.Connect(sink, a); err == nil {
		t.Fatal("Connect on a frozen graph accepted")
	}
	mustPanic(t, "MustAddOp", func() { g.MustAddOp("extra", Compute) })
	mustPanic(t, "MustConnect", func() { g.MustConnect(sink, a) })
	if g.Len() != 4 || g.NumEdges() != 4 || a.NumIn() != 1 || sink.NumOut() != 0 {
		t.Fatalf("a rejected mutation changed the graph: %d ops, %d edges", g.Len(), g.NumEdges())
	}
	g.Freeze()
	if err := g.Validate(); err != nil {
		t.Fatalf("frozen twice: %v", err)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on a frozen graph did not panic", what)
		}
	}()
	f()
}

func TestFrozenOpFindsEveryOp(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(3)), 60, 0.1)
	g.Freeze()
	for _, op := range g.Ops() {
		if got := g.Op(op.Name); got != op {
			t.Fatalf("Op(%q) = %v, want op %d", op.Name, got, op.ID)
		}
	}
	if g.Op("absent") != nil {
		t.Fatal("Op found a name no op has")
	}
}

// TestFrozenValidateCatchesRenames: with no name index left, Validate
// still rejects two ops that share a name, however they came to.
func TestFrozenValidateCatchesRenames(t *testing.T) {
	g := buildDiamond(t)
	g.Freeze()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid frozen graph rejected: %v", err)
	}
	b := g.Op("b")
	b.Name = "a"
	if err := g.Validate(); err == nil {
		t.Fatal("duplicated op name accepted on a frozen graph")
	}
	b.Name = "b"
	if err := g.Validate(); err != nil {
		t.Fatalf("restored graph rejected: %v", err)
	}
}

func TestCloneOfFrozenGraphIsMutable(t *testing.T) {
	g := buildDiamond(t)
	g.Freeze()
	c := g.Clone()
	extra := tag(c.MustAddOp("extra", Compute), "worker:0")
	c.MustConnect(c.Op("sink"), extra)
	if c.Op("extra") != extra || c.Len() != 5 || c.NumEdges() != 5 {
		t.Fatalf("clone of a frozen graph did not take an op and an edge: %d ops, %d edges", c.Len(), c.NumEdges())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || g.Op("sink").NumOut() != 0 {
		t.Fatal("building on the clone changed the frozen original")
	}
}

// TestAdjacencyOrderAndIsolation: In and Out list edges in the order
// Connect added them, whichever end was added first, and a caller's
// append to either cannot write into the op's shared adjacency.
func TestAdjacencyOrderAndIsolation(t *testing.T) {
	g := New()
	op := make([]*Op, 6)
	for i := range op {
		op[i] = tag(g.MustAddOp(opName(i), Compute), "worker:0")
	}
	mid := op[2]
	g.MustConnect(mid, op[4])
	g.MustConnect(op[1], mid)
	g.MustConnect(mid, op[3])
	g.MustConnect(op[0], mid)
	g.MustConnect(mid, op[5])
	wantIn, wantOut := []*Op{op[1], op[0]}, []*Op{op[4], op[3], op[5]}
	if !slices.Equal(mid.In(), wantIn) || !slices.Equal(mid.Out(), wantOut) {
		t.Fatalf("In %v Out %v, want %v and %v", mid.In(), mid.Out(), wantIn, wantOut)
	}
	in := append(mid.In(), op[5])
	out := append(mid.Out(), op[0])
	in[0], out[0] = op[3], op[1]
	if !slices.Equal(mid.In(), wantIn) || !slices.Equal(mid.Out(), wantOut) {
		t.Fatalf("appending to In/Out changed the op: In %v Out %v", mid.In(), mid.Out())
	}
	if mid.NumIn() != 2 || mid.NumOut() != 3 || mid.IsRoot() || mid.IsLeaf() {
		t.Fatalf("degrees %d/%d", mid.NumIn(), mid.NumOut())
	}
}

// TestNewSizedGrowsPastItsSlab: ops past the size NewSized was given are
// ordinary ops of the graph.
func TestNewSizedGrowsPastItsSlab(t *testing.T) {
	g := NewSized(2)
	var prev *Op
	for i := 0; i < 5; i++ {
		op := tag(g.MustAddOp(opName(i), Compute), "worker:0")
		if prev != nil {
			g.MustConnect(prev, op)
		}
		prev = op
	}
	g.Freeze()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.CriticalPathLen() != 5 || g.Op(opName(4)) != prev {
		t.Fatalf("depth %d", g.CriticalPathLen())
	}
}

func TestOpIs120Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 120-byte layout is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Op{}); got != 120 {
		t.Fatalf("graph.Op is %d bytes, want 120", got)
	}
}
