package graph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func tag(op *Op, device string) *Op {
	op.Device = device
	op.Resource = device + "/compute"
	return op
}

// buildDiamond builds a <- root -> b -> sink, a -> sink.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	root := tag(g.MustAddOp("root", Compute), "worker:0")
	a := tag(g.MustAddOp("a", Compute), "worker:0")
	b := tag(g.MustAddOp("b", Compute), "worker:0")
	sink := tag(g.MustAddOp("sink", Compute), "worker:0")
	g.MustConnect(root, a)
	g.MustConnect(root, b)
	g.MustConnect(a, sink)
	g.MustConnect(b, sink)
	return g
}

func TestAddOpRejectsDuplicates(t *testing.T) {
	g := New()
	if _, err := g.AddOp("x", Compute); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if _, err := g.AddOp("x", Recv); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := g.AddOp("", Compute); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestConnectRejectsBadEdges(t *testing.T) {
	g := New()
	a := g.MustAddOp("a", Compute)
	b := g.MustAddOp("b", Compute)
	if err := g.Connect(a, a); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := g.Connect(a, b); err != nil {
		t.Fatalf("edge rejected: %v", err)
	}
	if err := g.Connect(a, b); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	other := New()
	c := other.MustAddOp("c", Compute)
	if err := g.Connect(a, c); err == nil {
		t.Fatal("cross-graph edge accepted")
	}
	if err := g.Connect(nil, b); err == nil {
		t.Fatal("nil edge accepted")
	}
}

// TestMembershipIsByIdentity requires Connect and Validate to tell a
// graph's own op from a look-alike in another graph with the same ID and
// name, and Validate to reject two ops sharing a name.
func TestMembershipIsByIdentity(t *testing.T) {
	g := New()
	a := tag(g.MustAddOp("a", Compute), "worker:0")
	b := tag(g.MustAddOp("b", Compute), "worker:0")
	other := New()
	tag(other.MustAddOp("a", Compute), "worker:0")
	twin := tag(other.MustAddOp("b", Compute), "worker:0")
	if twin.ID != b.ID || twin.Name != b.Name {
		t.Fatalf("look-alike is %d/%s, want %d/%s", twin.ID, twin.Name, b.ID, b.Name)
	}
	if err := g.Connect(a, twin); err == nil {
		t.Fatal("edge to a look-alike from another graph accepted")
	}
	if err := g.Connect(twin, a); err == nil {
		t.Fatal("edge from a look-alike from another graph accepted")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	a.adj = append(a.adj, twin)
	if err := g.Validate(); err == nil {
		t.Fatal("successor from another graph accepted")
	}
	a.adj = a.adj[:a.numIn]

	b.Name = "a"
	if err := g.Validate(); err == nil {
		t.Fatal("duplicated op name accepted")
	}
	b.Name = "b"
	if err := g.Validate(); err != nil {
		t.Fatalf("restored graph rejected: %v", err)
	}
}

func TestRootsAndLeaves(t *testing.T) {
	g := buildDiamond(t)
	roots := g.Roots()
	if len(roots) != 1 || roots[0].Name != "root" {
		t.Fatalf("roots = %v", roots)
	}
	leaves := g.Leaves()
	if len(leaves) != 1 || leaves[0].Name != "sink" {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g := buildDiamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, op := range order {
		pos[op.Name] = i
	}
	if pos["root"] > pos["a"] || pos["root"] > pos["b"] || pos["a"] > pos["sink"] || pos["b"] > pos["sink"] {
		t.Fatalf("order violates edges: %v", order)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	a := g.MustAddOp("a", Compute)
	b := g.MustAddOp("b", Compute)
	c := g.MustAddOp("c", Compute)
	g.MustConnect(a, b)
	g.MustConnect(b, c)
	g.MustConnect(c, a)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidate(t *testing.T) {
	g := buildDiamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.Op("a").Device = ""
	if err := g.Validate(); err == nil {
		t.Fatal("missing device tag accepted")
	}
	g.Op("a").Device = "worker:0"
	g.Op("a").Resource = ""
	if err := g.Validate(); err == nil {
		t.Fatal("missing resource tag accepted")
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	g := buildDiamond(t)
	g.Op("a").Bytes = 42
	g.Op("a").Param = "w1"
	c := g.Clone()
	if c.Len() != g.Len() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone shape mismatch: %d/%d vs %d/%d", c.Len(), c.NumEdges(), g.Len(), g.NumEdges())
	}
	if c.Op("a").Bytes != 42 || c.Op("a").Param != "w1" {
		t.Fatal("clone lost payload fields")
	}
	// Mutating the clone must not affect the original.
	c.MustConnect(c.Op("sink"), c.MustAddOp("extra", Compute))
	if g.Op("extra") != nil || g.Op("sink").NumOut() != 0 {
		t.Fatal("clone shares structure with original")
	}
}

func TestOpsOfKindAndStats(t *testing.T) {
	g := New()
	r := g.MustAddOp("recv/p0", Recv)
	r.Device, r.Resource, r.Param, r.Bytes = "worker:0", "worker:0/net", "p0", 1024
	c := tag(g.MustAddOp("mm", Compute), "worker:0")
	s := g.MustAddOp("send/p0", Send)
	s.Device, s.Resource, s.Param, s.Bytes = "worker:0", "worker:0/net", "p0", 1024
	g.MustConnect(r, c)
	g.MustConnect(c, s)
	if n := len(g.OpsOfKind(Recv)); n != 1 {
		t.Fatalf("recv count = %d", n)
	}
	st := CollectStats(g)
	if st.Ops != 3 || st.Recvs != 1 || st.Sends != 1 || st.Computes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Params != 1 || st.ParamBytes != 1024 {
		t.Fatalf("param stats = %+v", st)
	}
	if st.Depth != 3 {
		t.Fatalf("depth = %d, want 3", st.Depth)
	}
	if !strings.Contains(st.String(), "ops=3") {
		t.Fatalf("stats string = %q", st.String())
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildDiamond(t)
	dot := DOT(g, "diamond")
	for _, want := range []string{"digraph", "cluster_0", "n0 -> n1"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// randomDAG builds a DAG by only adding edges from lower to higher IDs.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		op := g.MustAddOp(opName(i), Compute)
		op.Device = "worker:0"
		op.Resource = "worker:0/compute"
	}
	ops := g.Ops()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustConnect(ops[i], ops[j])
			}
		}
	}
	return g
}

func opName(i int) string {
	return "op" + string(rune('a'+i%26)) + "_" + string(rune('0'+(i/26)%10)) + "_" + string(rune('0'+i/260))
}

// TestQuickTopoSortIsValid: for random DAGs, TopoSort succeeds and the
// returned order is a permutation respecting every edge.
func TestQuickTopoSortIsValid(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%60)
		p := float64(pRaw%90)/100.0 + 0.05
		g := randomDAG(rng, n, p)
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, op := range order {
			pos[op.ID] = i
		}
		for _, op := range g.Ops() {
			for _, succ := range op.Out() {
				if pos[op.ID] >= pos[succ.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneMatches: Clone preserves op set, edges, and stats.
func TestQuickCloneMatches(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%40)
		g := randomDAG(rng, n, 0.2)
		c := g.Clone()
		if c.Len() != g.Len() || c.NumEdges() != g.NumEdges() {
			return false
		}
		for _, op := range g.Ops() {
			co := c.Op(op.Name)
			if co == nil || co.NumIn() != op.NumIn() || co.NumOut() != op.NumOut() {
				return false
			}
		}
		return CollectStats(c) == CollectStats(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCriticalPathBounds: 1 <= depth <= n, and for a chain depth == n.
func TestQuickCriticalPathBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%40)
		g := randomDAG(rng, n, 0.15)
		d := g.CriticalPathLen()
		return d >= 1 && d <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Exact value on a chain.
	g := New()
	prev := tag(g.MustAddOp("c0", Compute), "d")
	for i := 1; i < 10; i++ {
		cur := tag(g.MustAddOp(opName(100+i), Compute), "d")
		g.MustConnect(prev, cur)
		prev = cur
	}
	if d := g.CriticalPathLen(); d != 10 {
		t.Fatalf("chain depth = %d, want 10", d)
	}
}

func TestKindString(t *testing.T) {
	if Recv.String() != "recv" || Compute.String() != "compute" {
		t.Fatal("kind names wrong")
	}
	if !Recv.IsCommunication() || !Send.IsCommunication() || Compute.IsCommunication() {
		t.Fatal("IsCommunication wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestDevicesResourcesSorted(t *testing.T) {
	g := New()
	b := g.MustAddOp("b", Compute)
	b.Device, b.Resource = "worker:1", "worker:1/compute"
	a := g.MustAddOp("a", Compute)
	a.Device, a.Resource = "ps:0", "ps:0/compute"
	devs := g.Devices()
	if !sort.StringsAreSorted(devs) || len(devs) != 2 {
		t.Fatalf("devices = %v", devs)
	}
	res := g.Resources()
	if !sort.StringsAreSorted(res) || len(res) != 2 {
		t.Fatalf("resources = %v", res)
	}
}
