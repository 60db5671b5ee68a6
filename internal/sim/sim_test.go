package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/timing"
)

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

func addRecv(g *graph.Graph, name string) *graph.Op {
	op := g.MustAddOp(name, graph.Recv)
	op.Device = "worker:0"
	op.Resource = "worker:0/net:ps:0"
	op.Param = name
	op.Bytes = 1
	return op
}

func addComp(g *graph.Graph, name string) *graph.Op {
	op := g.MustAddOp(name, graph.Compute)
	op.Device = "worker:0"
	op.Resource = "worker:0/compute"
	return op
}

// figure1 builds the toy DAG of Figure 1.
func figure1() (*graph.Graph, timing.Oracle) {
	g := graph.New()
	r1 := addRecv(g, "recv1")
	r2 := addRecv(g, "recv2")
	op1 := addComp(g, "op1")
	op2 := addComp(g, "op2")
	g.MustConnect(r1, op1)
	g.MustConnect(r1, op2)
	g.MustConnect(r2, op2)
	oracle := fixedOracle{times: map[string]float64{
		"recv1": 1, "recv2": 1, "op1": 3, "op2": 1,
	}}
	return g, oracle
}

func sched(keys ...string) *core.Schedule {
	s := &core.Schedule{Algorithm: core.AlgoTIC, Rank: map[string]int{}, Order: keys}
	for i, k := range keys {
		s.Rank[k] = i
	}
	return s
}

// TestFigure1GoodVsBadOrder reproduces Figure 1b/1c: transferring recv1
// first overlaps op1 with recv2 (makespan 5); the reverse order blocks
// computation (makespan 6).
func TestFigure1GoodVsBadOrder(t *testing.T) {
	g, oracle := figure1()
	good, err := Run(g, Config{Oracle: oracle, Schedule: sched("recv1", "recv2")})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Run(g, Config{Oracle: oracle, Schedule: sched("recv2", "recv1")})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(good.Makespan-5) > 1e-9 {
		t.Fatalf("good makespan = %v, want 5", good.Makespan)
	}
	if math.Abs(bad.Makespan-6) > 1e-9 {
		t.Fatalf("bad makespan = %v, want 6", bad.Makespan)
	}
}

func TestScheduleEnforcesRecvOrder(t *testing.T) {
	g, oracle := figure1()
	res, err := Run(g, Config{Oracle: oracle, Schedule: sched("recv2", "recv1"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	order := res.RecvStartOrder["worker:0"]
	if len(order) != 2 || order[0] != "recv2" || order[1] != "recv1" {
		t.Fatalf("recv order = %v", order)
	}
	// The recvs share one channel, so recv2 also completes first.
	end := map[string]float64{}
	for _, sp := range res.Spans {
		if sp.Op.Kind == graph.Recv {
			end[sp.Op.Name] = sp.End
		}
	}
	if len(end) != 2 || end["recv2"] >= end["recv1"] {
		t.Fatalf("recv end times = %v, want recv2 before recv1", end)
	}
}

func TestBaselineOrderVariesAcrossSeeds(t *testing.T) {
	spec, _ := model.ByName("Inception v1")
	g := model.MustBuildWorker(spec, model.Inference, spec.Batch, "worker:0", nil)
	oracle := timing.EnvG().Oracle()
	seen := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		res, err := Run(g, Config{Oracle: oracle, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		order := res.RecvStartOrder["worker:0"]
		if len(order) != spec.Params {
			t.Fatalf("seed %d: %d recvs started, want %d", seed, len(order), spec.Params)
		}
		seen[join(order)] = true
	}
	if len(seen) < 7 {
		t.Fatalf("baseline produced only %d unique orders over 8 seeds", len(seen))
	}
}

func TestEnforcedOrderIsStableAcrossSeeds(t *testing.T) {
	spec, _ := model.ByName("AlexNet v2")
	g := model.MustBuildWorker(spec, model.Inference, spec.Batch, "worker:0", nil)
	s, err := core.TIC(g)
	if err != nil {
		t.Fatal(err)
	}
	oracle := timing.EnvG().Oracle()
	var first string
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(g, Config{Oracle: oracle, Schedule: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got := join(res.RecvStartOrder["worker:0"])
		if seed == 0 {
			first = got
		} else if got != first {
			t.Fatalf("enforced order changed across seeds")
		}
	}
}

func TestSameSeedSameResult(t *testing.T) {
	spec, _ := model.ByName("VGG-16")
	g := model.MustBuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
	oracle := timing.EnvC().Oracle()
	a, err := Run(g, Config{Oracle: oracle, Seed: 42, Jitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{Oracle: oracle, Seed: 42, Jitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed, different makespans: %v vs %v", a.Makespan, b.Makespan)
	}
	c, err := Run(g, Config{Oracle: oracle, Seed: 43, Jitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == c.Makespan {
		t.Fatal("different seeds produced identical jittered makespans (suspicious)")
	}
}

func TestReorderInjection(t *testing.T) {
	g, oracle := figure1()
	res, err := Run(g, Config{Oracle: oracle, Schedule: sched("recv1", "recv2"), ReorderProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReorderEvents == 0 {
		t.Fatal("no reorder events with probability 1")
	}
	if res.RecvStartOrder["worker:0"][0] != "recv2" {
		t.Fatalf("reorder did not displace head: %v", res.RecvStartOrder["worker:0"])
	}
	// Zero probability: never.
	res, _ = Run(g, Config{Oracle: oracle, Schedule: sched("recv1", "recv2"), ReorderProb: 0})
	if res.ReorderEvents != 0 {
		t.Fatal("reorder events without injection")
	}
}

func TestTracerReceivesAllOps(t *testing.T) {
	g, oracle := figure1()
	tr := timing.NewTracer()
	if _, err := Run(g, Config{Oracle: oracle, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != g.Len() {
		t.Fatalf("traced %d ops, want %d", tr.Len(), g.Len())
	}
}

func TestRunErrors(t *testing.T) {
	g, _ := figure1()
	if _, err := Run(g, Config{}); err == nil {
		t.Fatal("missing oracle accepted")
	}
	cyc := graph.New()
	a := addComp(cyc, "a")
	b := addComp(cyc, "b")
	cyc.MustConnect(a, b)
	cyc.MustConnect(b, a)
	if _, err := Run(cyc, Config{Oracle: fixedOracle{def: 1}}); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestSpansConsistent(t *testing.T) {
	spec, _ := model.ByName("ResNet-50 v1")
	g := model.MustBuildWorker(spec, model.Training, spec.Batch, "worker:0", nil)
	oracle := timing.EnvG().Oracle()
	res, err := Run(g, Config{Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != g.Len() {
		t.Fatalf("spans = %d, want %d", len(res.Spans), g.Len())
	}
	// No op starts before its predecessors end, and makespan is the max end.
	end := make(map[int]float64)
	maxEnd := 0.0
	for _, sp := range res.Spans {
		end[sp.Op.ID] = sp.End
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
		if sp.Start > sp.End {
			t.Fatalf("span inverted for %s", sp.Op.Name)
		}
	}
	for _, sp := range res.Spans {
		for _, pred := range sp.Op.In() {
			if sp.Start+1e-12 < end[pred.ID] {
				t.Fatalf("%s started before predecessor %s finished", sp.Op.Name, pred.Name)
			}
		}
	}
	if math.Abs(res.Makespan-maxEnd) > 1e-9 {
		t.Fatalf("makespan %v != max end %v", res.Makespan, maxEnd)
	}
	if res.DeviceFinish["worker:0"] != res.Makespan {
		t.Fatal("device finish mismatch on single-device graph")
	}
}

// Property: the simulated makespan always lies within the §3.2 bounds
// [LMakespan, UMakespan] for a work-conserving executor, with or without a
// schedule.
func TestQuickMakespanWithinBounds(t *testing.T) {
	f := func(seed int64, withSchedule bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomPartition(rng, 2+rng.Intn(8))
		oracle := fixedOracle{def: 0.25 + rng.Float64()}
		var s *core.Schedule
		if withSchedule {
			var err error
			s, err = core.TIC(g)
			if err != nil {
				return false
			}
		}
		res, err := Run(g, Config{Oracle: oracle, Schedule: s, Seed: seed})
		if err != nil {
			return false
		}
		u, l := core.Bounds(g, oracle)
		return res.Makespan >= l-1e-9 && res.Makespan <= u+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: resources never run two ops at once.
func TestQuickResourceExclusive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomPartition(rng, 2+rng.Intn(6))
		res, err := Run(g, Config{Oracle: fixedOracle{def: 1}, Seed: seed, Jitter: 0.3})
		if err != nil {
			return false
		}
		type iv struct{ s, e float64 }
		perRes := map[string][]iv{}
		for _, sp := range res.Spans {
			perRes[sp.Op.Resource] = append(perRes[sp.Op.Resource], iv{sp.Start, sp.End})
		}
		for _, ivs := range perRes {
			for i := 0; i < len(ivs); i++ {
				for j := i + 1; j < len(ivs); j++ {
					if ivs[i].s < ivs[j].e-1e-9 && ivs[j].s < ivs[i].e-1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randomPartition(rng *rand.Rand, nRecv int) *graph.Graph {
	g := graph.New()
	recvs := make([]*graph.Op, nRecv)
	for i := range recvs {
		recvs[i] = addRecv(g, "r"+string(rune('A'+i)))
	}
	nComp := nRecv + rng.Intn(15)
	comps := make([]*graph.Op, nComp)
	for i := range comps {
		comps[i] = addComp(g, "c"+string(rune('A'+i%26))+string(rune('0'+i/26)))
		if i > 0 {
			g.MustConnect(comps[rng.Intn(i)], comps[i])
		}
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
	return g
}

func join(xs []string) string {
	out := ""
	for _, x := range xs {
		out += x + "|"
	}
	return out
}
