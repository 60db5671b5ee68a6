package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/timing"
)

// fixedOracle assigns times by op name with a default.
type fixedOracle struct {
	times map[string]float64
	def   float64
}

func (f fixedOracle) Time(op *graph.Op) float64 {
	if t, ok := f.times[op.Name]; ok {
		return t
	}
	return f.def
}

func addRecv(g *graph.Graph, name string, bytes int64) *graph.Op {
	op := g.MustAddOp(name, graph.Recv)
	op.Device = "worker:0"
	op.Resource = "worker:0/net:ps:0"
	op.Bytes = bytes
	op.Param = name
	return op
}

func addComp(g *graph.Graph, name string, flops int64) *graph.Op {
	op := g.MustAddOp(name, graph.Compute)
	op.Device = "worker:0"
	op.Resource = "worker:0/compute"
	op.FLOPs = flops
	return op
}

// figure1 builds the toy DAG of Figure 1: recv1 → op1, {recv1, recv2} → op2.
func figure1() *graph.Graph {
	g := graph.New()
	r1 := addRecv(g, "recv1", 1)
	r2 := addRecv(g, "recv2", 1)
	op1 := addComp(g, "op1", 1)
	op2 := addComp(g, "op2", 1)
	g.MustConnect(r1, op1)
	g.MustConnect(r1, op2)
	g.MustConnect(r2, op2)
	return g
}

func TestFindDependencies(t *testing.T) {
	g := figure1()
	d, err := FindDependencies(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecvs() != 2 {
		t.Fatalf("recvs = %d", d.NumRecvs())
	}
	// dependsOn reads op's dependency bitset at recv's dense index.
	dependsOn := func(op, recv string) bool {
		return d.dep[g.Op(op).ID].has(d.recvIndex[g.Op(recv).ID])
	}
	if n := d.dep[g.Op("op2").ID].count(); n != 2 || !dependsOn("op2", "recv1") || !dependsOn("op2", "recv2") {
		t.Fatalf("op2 depends on %d recvs, want recv1 and recv2", n)
	}
	if !dependsOn("op1", "recv1") || dependsOn("op1", "recv2") {
		t.Fatal("op1 dependency set wrong")
	}
	// A recv depends on itself.
	if !dependsOn("recv1", "recv1") {
		t.Fatal("recv should contain itself in dep set")
	}
}

func TestFindDependenciesCycle(t *testing.T) {
	g := graph.New()
	a := addComp(g, "a", 1)
	b := addComp(g, "b", 1)
	g.MustConnect(a, b)
	g.MustConnect(b, a)
	if _, err := FindDependencies(g); err == nil {
		t.Fatal("cycle not reported")
	}
}

// TestTACFigure1 reproduces the paper's motivating example: recv1 unblocks
// op1 immediately (P > 0) so TAC must schedule it before recv2.
func TestTACFigure1(t *testing.T) {
	g := figure1()
	oracle := fixedOracle{times: map[string]float64{
		"recv1": 1, "recv2": 1, "op1": 10, "op2": 1,
	}}
	s, err := TAC(g, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != 2 || s.Order[0] != "recv1" || s.Order[1] != "recv2" {
		t.Fatalf("TAC order = %v, want [recv1 recv2]", s.Order)
	}
	if s.Algorithm != AlgoTAC {
		t.Fatalf("algorithm = %s", s.Algorithm)
	}
	if pos, ok := s.Position(g.Op("recv1")); !ok || pos != 0 {
		t.Fatalf("recv1 position = %d,%v", pos, ok)
	}
}

// TestTACFigure1Swapped: if op2 (gated by both recvs) is the heavy op and
// op1 is negligible, the ordering is less constrained but recv1 still wins
// the M+ tie-break only through P; verify TAC stays deterministic.
func TestTACDeterministic(t *testing.T) {
	g := figure1()
	oracle := fixedOracle{times: map[string]float64{
		"recv1": 1, "recv2": 1, "op1": 10, "op2": 1,
	}}
	a, _ := TAC(g, oracle)
	b, _ := TAC(g, oracle)
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatal("TAC not deterministic")
		}
	}
}

// figure4b builds the Case 2 DAG (§4.3): recvA and recvB gate op1; op1's
// output plus recvC gate op2; op2's output plus recvD gate op3.
func figure4b() *graph.Graph {
	g := graph.New()
	rA := addRecv(g, "recvA", 1)
	rB := addRecv(g, "recvB", 1)
	rC := addRecv(g, "recvC", 1)
	rD := addRecv(g, "recvD", 1)
	op1 := addComp(g, "op1", 1)
	op2 := addComp(g, "op2", 1)
	op3 := addComp(g, "op3", 1)
	g.MustConnect(rA, op1)
	g.MustConnect(rB, op1)
	g.MustConnect(op1, op2)
	g.MustConnect(rC, op2)
	g.MustConnect(op2, op3)
	g.MustConnect(rD, op3)
	return g
}

// TestTACFigure4bCase2: with all recvs outstanding every P is 0, so M+
// breaks the tie: A and B (M+ = 2) precede C (M+ = 3) precede D (M+ = 4).
func TestTACFigure4bCase2(t *testing.T) {
	g := figure4b()
	oracle := fixedOracle{def: 1}
	s, err := TAC(g, oracle)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, k := range s.Order {
		pos[k] = i
	}
	if !(pos["recvA"] < pos["recvC"] && pos["recvB"] < pos["recvC"] && pos["recvC"] < pos["recvD"]) {
		t.Fatalf("TAC order = %v", s.Order)
	}
}

// TestTICFigure4b: TIC sees the same M+ structure under the 0/1 oracle.
func TestTICFigure4b(t *testing.T) {
	g := figure4b()
	s, err := TIC(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithm != AlgoTIC {
		t.Fatal("algorithm tag")
	}
	if s.Rank["recvA"] != 2 || s.Rank["recvB"] != 2 {
		t.Fatalf("rank A/B = %d/%d, want 2/2", s.Rank["recvA"], s.Rank["recvB"])
	}
	if s.Rank["recvC"] != 3 || s.Rank["recvD"] != 4 {
		t.Fatalf("rank C/D = %d/%d, want 3/4", s.Rank["recvC"], s.Rank["recvD"])
	}
	pos := map[string]int{}
	for i, k := range s.Order {
		pos[k] = i
	}
	if !(pos["recvA"] < pos["recvC"] && pos["recvC"] < pos["recvD"]) {
		t.Fatalf("TIC order = %v", s.Order)
	}
}

// TestTICInfiniteMPlusSinksLast: a recv gating only a single-dependency op
// never appears in a multi-recv dependency set, so its M+ is +∞ and it must
// be ordered after all finite-M+ recvs.
func TestTICInfiniteMPlusSinksLast(t *testing.T) {
	g := graph.New()
	rA := addRecv(g, "recvA", 1)
	rB := addRecv(g, "recvB", 1)
	rLonely := addRecv(g, "lonely", 1)
	shared := addComp(g, "shared", 1)
	solo := addComp(g, "solo", 1)
	g.MustConnect(rA, shared)
	g.MustConnect(rB, shared)
	g.MustConnect(rLonely, solo)
	s, err := TIC(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Order[len(s.Order)-1] != "lonely" {
		t.Fatalf("order = %v, want lonely last", s.Order)
	}
}

func TestTACRequiresOracle(t *testing.T) {
	if _, err := TAC(figure1(), nil); err == nil {
		t.Fatal("nil oracle accepted")
	}
}

func TestEmptySchedules(t *testing.T) {
	g := graph.New()
	addComp(g, "only", 1)
	s, err := TIC(g)
	if err != nil || len(s.Order) != 0 {
		t.Fatalf("TIC on recv-free graph: %v %v", s, err)
	}
	s2, err := TAC(g, fixedOracle{def: 1})
	if err != nil || len(s2.Order) != 0 {
		t.Fatalf("TAC on recv-free graph: %v %v", s2, err)
	}
	var nilSched *Schedule
	if _, ok := nilSched.Position(g.Op("only")); ok {
		t.Fatal("nil schedule position")
	}
}

// TestCompileMatchesPosition pins the compiled-schedule contract: for every
// op of the compiled graph the dense table agrees with Position, with -1
// standing in for "not part of the schedule".
func TestCompileMatchesPosition(t *testing.T) {
	g := figure1()
	s, err := TAC(g, fixedOracle{def: 1})
	if err != nil {
		t.Fatal(err)
	}
	pos := s.Compile(g)
	if len(pos) != g.Len() {
		t.Fatalf("compiled length = %d, want %d", len(pos), g.Len())
	}
	for _, op := range g.Ops() {
		want, ok := s.Position(op)
		if !ok {
			if pos[op.ID] != -1 {
				t.Fatalf("%s: compiled %d, want -1 (unprioritized)", op.Name, pos[op.ID])
			}
			continue
		}
		if int(pos[op.ID]) != want {
			t.Fatalf("%s: compiled %d, want %d", op.Name, pos[op.ID], want)
		}
	}
	// Compute ops never appear in a transfer schedule.
	if pos[g.Op("op1").ID] != -1 || pos[g.Op("op2").ID] != -1 {
		t.Fatal("compute ops should compile to -1")
	}
}

// TestCompileNilSchedule: the baseline (no schedule) compiles to an all -1
// table so the simulator can use one code path for both regimes.
func TestCompileNilSchedule(t *testing.T) {
	g := figure1()
	var s *Schedule
	for i, p := range s.Compile(g) {
		if p != -1 {
			t.Fatalf("nil schedule compiled pos[%d] = %d, want -1", i, p)
		}
	}
}

func TestKeyPrefersParam(t *testing.T) {
	g := graph.New()
	op := addRecv(g, "recv/p0", 4)
	op.Param = "p0"
	if Key(op) != "p0" {
		t.Fatalf("key = %q", Key(op))
	}
	op.Param = ""
	if Key(op) != "recv/p0" {
		t.Fatalf("key fallback = %q", Key(op))
	}
}

func TestBoundsAndEfficiency(t *testing.T) {
	// Two resources: net carries recvs (1s each), compute carries ops
	// (10 + 1 = 11s). U = 13, L = 11.
	g := figure1()
	oracle := fixedOracle{times: map[string]float64{
		"recv1": 1, "recv2": 1, "op1": 10, "op2": 1,
	}}
	u, l := Bounds(g, oracle)
	if u != 13 || l != 11 {
		t.Fatalf("bounds = %v, %v; want 13, 11", u, l)
	}
	// Perfect schedule achieves m = L → E = 1.
	if e := Efficiency(g, oracle, 11); e != 1 {
		t.Fatalf("E(best) = %v", e)
	}
	// Worst (sequential) → E = 0.
	if e := Efficiency(g, oracle, 13); e != 0 {
		t.Fatalf("E(worst) = %v", e)
	}
	if e := Efficiency(g, oracle, 12); e != 0.5 {
		t.Fatalf("E(mid) = %v", e)
	}
	want := (13.0 - 11.0) / 11.0
	if s := Speedup(g, oracle); s != want {
		t.Fatalf("S = %v, want %v", s, want)
	}
}

func TestEfficiencyDegenerate(t *testing.T) {
	// Single-resource graph: U == L, E defined as 1, S as 0.
	g := graph.New()
	a := addComp(g, "a", 1)
	b := addComp(g, "b", 1)
	g.MustConnect(a, b)
	oracle := fixedOracle{def: 1}
	if e := Efficiency(g, oracle, 2); e != 1 {
		t.Fatalf("E = %v", e)
	}
	if s := Speedup(g, oracle); s != 0 {
		t.Fatalf("S = %v", s)
	}
	empty := graph.New()
	if s := Speedup(empty, oracle); s != 0 {
		t.Fatalf("S(empty) = %v", s)
	}
}

// TestSchedulesOnCatalogModels: both heuristics produce a complete
// permutation of every model's parameters, with TAC ordering consistent
// under the platform oracle.
func TestSchedulesOnCatalogModels(t *testing.T) {
	env := timing.EnvG()
	for _, spec := range model.Catalog() {
		g := model.MustBuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
		tic, err := TIC(g)
		if err != nil {
			t.Fatalf("%s TIC: %v", spec.Name, err)
		}
		tac, err := TAC(g, env.Oracle())
		if err != nil {
			t.Fatalf("%s TAC: %v", spec.Name, err)
		}
		for _, s := range []*Schedule{tic, tac} {
			if len(s.Order) != spec.Params {
				t.Fatalf("%s %s: order covers %d of %d params", spec.Name, s.Algorithm, len(s.Order), spec.Params)
			}
			seen := map[string]bool{}
			for _, k := range s.Order {
				if seen[k] {
					t.Fatalf("%s %s: duplicate key %s", spec.Name, s.Algorithm, k)
				}
				seen[k] = true
			}
		}
	}
}

// TestTACPrefersEarlyLayers: on a sequential model the TAC order should be
// strongly correlated with layer order (early layers unblock compute
// first).
func TestTACPrefersEarlyLayers(t *testing.T) {
	spec, _ := model.ByName("VGG-16")
	g := model.MustBuildWorker(spec, model.Inference, spec.Batch, "worker:0", nil)
	s, err := TAC(g, timing.EnvG().Oracle())
	if err != nil {
		t.Fatal(err)
	}
	// First scheduled transfer should come from the first two layers.
	first := s.Order[0]
	if !(first == "p000/weights" || first == "p000/biases" || first == "p001/weights" || first == "p001/biases") {
		t.Fatalf("first transfer = %s, expected an early-layer tensor", first)
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if !b.has(64) || b.has(1) {
		t.Fatal("set/has")
	}
	if b.count() != 3 {
		t.Fatalf("count = %d", b.count())
	}
	other := newBitset(130)
	other.set(64)
	other.set(100)
	if b.countAnd(other) != 1 {
		t.Fatal("countAnd")
	}
	var got []int
	b.forEachAnd(other, func(i int) { got = append(got, i) })
	if len(got) != 1 || got[0] != 64 {
		t.Fatalf("forEachAnd = %v", got)
	}
	c := b.clone()
	c.clear(64)
	if !b.has(64) || c.has(64) {
		t.Fatal("clone not independent")
	}
	if b.empty() {
		t.Fatal("empty on non-empty")
	}
	if !newBitset(10).empty() {
		t.Fatal("fresh bitset not empty")
	}
	b2 := newBitset(130)
	b2.or(b)
	if b2.count() != 3 {
		t.Fatal("or")
	}
}

// Property: for random layered DAGs, TIC and TAC both emit permutations of
// the recv set, and TAC under the general oracle ranks recvs consistently
// with TIC's class order (same blocking structure).
func TestQuickSchedulePermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nRecv := 2 + int(nRaw%12)
		g := randomPartition(rng, nRecv)
		tic, err := TIC(g)
		if err != nil {
			return false
		}
		tac, err := TAC(g, fixedOracle{def: 1})
		if err != nil {
			return false
		}
		if len(tic.Order) != nRecv || len(tac.Order) != nRecv {
			return false
		}
		seen := map[string]bool{}
		for _, k := range tac.Order {
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomPartition builds a random worker partition: recv roots feeding a
// random layered compute body.
func randomPartition(rng *rand.Rand, nRecv int) *graph.Graph {
	g := graph.New()
	recvs := make([]*graph.Op, nRecv)
	for i := range recvs {
		recvs[i] = addRecv(g, "r"+string(rune('A'+i)), int64(1+rng.Intn(100)))
	}
	nComp := nRecv + rng.Intn(20)
	comps := make([]*graph.Op, nComp)
	for i := range comps {
		comps[i] = addComp(g, "c"+string(rune('A'+i%26))+string(rune('0'+i/26)), int64(rng.Intn(1000)))
		// Wire from a random earlier compute op.
		if i > 0 {
			g.MustConnect(comps[rng.Intn(i)], comps[i])
		}
		// Wire from 1-2 random recvs.
		for k := 0; k < 1+rng.Intn(2); k++ {
			r := recvs[rng.Intn(nRecv)]
			dup := false
			for _, in := range comps[i].In() {
				if in == r {
					dup = true
				}
			}
			if !dup {
				g.MustConnect(r, comps[i])
			}
		}
	}
	return g
}

// Property: E is 1 at the lower bound, 0 at the upper bound, and monotone
// decreasing in the measured makespan.
func TestQuickEfficiencyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomPartition(rng, 3+rng.Intn(5))
		oracle := fixedOracle{def: 0.5}
		u, l := Bounds(g, oracle)
		if u < l {
			return false
		}
		prev := 2.0
		for _, m := range []float64{l, (l + u) / 2, u} {
			e := Efficiency(g, oracle, m)
			if e > prev+1e-12 {
				return false
			}
			prev = e
		}
		return Efficiency(g, oracle, l) >= Efficiency(g, oracle, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPositionsMemoizedPerGraph: a table memoized under one graph's key is
// what Positions returns for that key, and nothing for another graph's key,
// whose table then replaces it.
func TestPositionsMemoizedPerGraph(t *testing.T) {
	g, h := figure1(), figure1()
	s, err := TAC(g, fixedOracle{def: 1})
	if err != nil {
		t.Fatal(err)
	}
	kg, kh := new(PositionsKey), new(PositionsKey)
	if s.Positions(kg) != nil {
		t.Fatal("Positions returned a table before any was memoized")
	}
	pos := s.Compile(g)
	s.Memoize(kg, pos)
	if got := s.Positions(kg); &got[0] != &pos[0] {
		t.Fatal("Positions did not return the table memoized under its key")
	}
	if s.Positions(kh) != nil {
		t.Fatal("Positions for another key returned the first key's table")
	}
	other := s.Compile(h)
	s.Memoize(kh, other)
	if got := s.Positions(kh); &got[0] != &other[0] {
		t.Fatal("Positions did not return the second key's table")
	}
	if s.Positions(kg) != nil {
		t.Fatal("the first key's table survived another key's Memoize")
	}
	runtime.KeepAlive(kg)
}
