package sched

import (
	"bytes"
	"reflect"
	"testing"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/timing"
)

// testDAG builds a small fixed worker partition whose orderings are
// hand-checkable:
//
//	recvA (10 MiB) → op1 (400 GFLOP) ─┐
//	recvB (30 MiB) ───────────────────┴→ op2 (10 GFLOP)
//	recvC (20 MiB) → op3 (50 GFLOP)
func testDAG(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	recv := func(name string, mib int64) *graph.Op {
		op := g.MustAddOp("recv/"+name, graph.Recv)
		op.Device, op.Resource, op.Param, op.Bytes = "worker:0", "worker:0/net:ps:0", name, mib<<20
		return op
	}
	comp := func(name string, flops int64, ins ...*graph.Op) *graph.Op {
		op := g.MustAddOp(name, graph.Compute)
		op.Device, op.Resource, op.FLOPs = "worker:0", "worker:0/compute", flops
		for _, in := range ins {
			g.MustConnect(in, op)
		}
		return op
	}
	a := recv("A", 10)
	b := recv("B", 30)
	c := recv("C", 20)
	op1 := comp("op1", 4e11, a)
	comp("op2", 1e10, op1, b)
	comp("op3", 5e10, c)
	return g
}

func TestGoldenOrderings(t *testing.T) {
	plat := timing.EnvG()
	// Hand-derived per policy: TIC ranks A,B by shared M+ and sinks C (gates
	// no multi-recv op); TAC's greedy picks A (unlocks 400 GFLOP), then C
	// over B (higher directly-dependent compute); smallest-first sorts by
	// bytes; critical-path sorts by downstream FLOPs; revtopo reverses the
	// deterministic topo order.
	want := map[string][]string{
		TIC:           {"A", "B", "C"},
		TAC:           {"A", "C", "B"},
		FIFO:          {"A", "B", "C"},
		RevTopo:       {"C", "B", "A"},
		SmallestFirst: {"A", "C", "B"},
		CriticalPath:  {"A", "C", "B"},
	}
	for name, order := range want {
		p, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Order(testDAG(t), &plat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s.Order, order) {
			t.Errorf("%s order = %v, want %v", name, s.Order, order)
		}
		if string(s.Algorithm) != name {
			t.Errorf("%s schedule records algorithm %q", name, s.Algorithm)
		}
		if err := core.ValidateSchedule(testDAG(t), s); err != nil {
			t.Errorf("%s schedule invalid: %v", name, err)
		}
	}
}

// scheduleBytes serializes a schedule to its canonical on-disk JSON form.
func scheduleBytes(t *testing.T, s *core.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPoliciesDeterministicForFixedSeed runs every policy in the table twice
// with the same seed on independently built copies of the same graph and
// requires byte-identical serialized schedules — the contract the parallel
// bench engine depends on.
func TestPoliciesDeterministicForFixedSeed(t *testing.T) {
	spec, ok := model.ByName("AlexNet v2")
	if !ok {
		t.Fatal("AlexNet v2 missing from catalog")
	}
	plat := timing.EnvG()
	build := func() *graph.Graph {
		g, err := model.BuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, name := range Names() {
		s1, err := mustNew(t, name, 7).Order(build(), &plat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2, err := mustNew(t, name, 7).Order(build(), &plat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(scheduleBytes(t, s1), scheduleBytes(t, s2)) {
			t.Errorf("%s: two runs with seed 7 differ", name)
		}
		if err := core.ValidateSchedule(build(), s1); err != nil {
			t.Errorf("%s schedule invalid: %v", name, err)
		}
	}
}

func TestRandomSeedVariesOrder(t *testing.T) {
	spec, _ := model.ByName("Inception v3") // 196 parameters: collisions implausible
	g, err := model.BuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := mustNew(t, Random, 1).Order(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mustNew(t, Random, 2).Order(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.Order, s2.Order) {
		t.Fatal("seeds 1 and 2 produced the same random order")
	}
	if err := core.ValidateSchedule(g, s2); err != nil {
		t.Fatal(err)
	}
}

// TestTICTACByteMatchCore cross-checks the ported tic/tac policies against
// the core implementations on every Table 1 model: the table path must
// serialize byte-identically to the direct pre-refactor entry points.
func TestTICTACByteMatchCore(t *testing.T) {
	plat := timing.EnvG()
	for _, spec := range model.Catalog() {
		g, err := model.BuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		ticDirect, err := core.TIC(g)
		if err != nil {
			t.Fatal(err)
		}
		ticPolicy, err := mustNew(t, TIC, 1).Order(g, &plat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scheduleBytes(t, ticDirect), scheduleBytes(t, ticPolicy)) {
			t.Errorf("%s: tic policy diverges from core.TIC", spec.Name)
		}
		tacDirect, err := core.TAC(g, plat.Oracle())
		if err != nil {
			t.Fatal(err)
		}
		tacPolicy, err := mustNew(t, TAC, 1).Order(g, &plat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scheduleBytes(t, tacDirect), scheduleBytes(t, tacPolicy)) {
			t.Errorf("%s: tac policy diverges from core.TAC", spec.Name)
		}
	}
}

// mustNew is New for names the test knows are in the table.
func mustNew(t *testing.T, name string, seed int64) Policy {
	t.Helper()
	p, err := New(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRegistry pins the fixed policy table: its names and their order,
// which reach /v1/policies and every -policy flag's help, each name
// resolving to a policy that answers to it, case- and space-insensitive
// lookup, and the unknown-name error text.
func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{TIC, TAC, Random, FIFO, RevTopo, SmallestFirst, CriticalPath}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range names {
		if got := mustNew(t, n, 1).Name(); got != n {
			t.Errorf("New(%q).Name() = %q", n, got)
		}
	}
	names[0] = "mutated"
	if Names()[0] != TIC {
		t.Fatal("Names() shares its slice with the table")
	}
	_, err := New("bogus", 1)
	if err == nil || err.Error() != `sched: unknown policy "bogus" (known: tic, tac, random, fifo, revtopo, smallest-first, critical-path)` {
		t.Fatalf("unknown-policy error = %v", err)
	}
	p, err := New(" TIC ", 1) // case- and space-insensitive selectors
	if err != nil || p.Name() != TIC {
		t.Fatalf("New(\" TIC \") = %v, %v", p, err)
	}
	if _, err := New(None, 1); err == nil {
		t.Fatal("none must not resolve to a policy (it means nil schedule)")
	}
}

func TestTACNeedsPlatform(t *testing.T) {
	if _, err := mustNew(t, TAC, 1).Order(testDAG(t), nil); err == nil {
		t.Fatal("tac without a platform should fail")
	}
}

// TestPartitionOnlyContract checks what a sched.PartitionOnly declaration
// promises cluster.ComputeSchedule, which orders each graph once for every
// seed and platform: every declaring policy yields one schedule digest for
// seeds 0, 1 and 99 and platforms EnvG and EnvC on three Table 1 models.
// It also pins which built-ins declare it: tac and random must not, since
// the seed drives tac's traced warmup and random's shuffle.
func TestPartitionOnlyContract(t *testing.T) {
	var declared []string
	for _, name := range Names() {
		if _, ok := mustNew(t, name, 0).(PartitionOnly); ok {
			declared = append(declared, name)
		}
	}
	if want := []string{TIC, FIFO, RevTopo, SmallestFirst, CriticalPath}; !reflect.DeepEqual(declared, want) {
		t.Fatalf("policies declaring PartitionOnly = %v, want %v", declared, want)
	}
	for _, modelName := range []string{"AlexNet v2", "Inception v3", "ResNet-101 v2"} {
		spec, ok := model.ByName(modelName)
		if !ok {
			t.Fatalf("%s missing from catalog", modelName)
		}
		g, err := model.BuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range declared {
			want := ""
			for _, seed := range []int64{0, 1, 99} {
				for _, plat := range []timing.Platform{timing.EnvG(), timing.EnvC()} {
					s, err := mustNew(t, name, seed).Order(g, &plat)
					if err != nil {
						t.Fatal(err)
					}
					d := core.ScheduleDigest(s)
					if want == "" {
						want = d
					}
					if d != want {
						t.Fatalf("%s on %s: seed %d on %s changes the schedule", name, modelName, seed, plat.Name)
					}
				}
			}
		}
	}
}
