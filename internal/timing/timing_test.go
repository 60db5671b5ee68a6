package timing

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"tictac/internal/graph"
)

func mkOp(kind graph.Kind, bytes, flops int64) *graph.Op {
	g := graph.New()
	op := g.MustAddOp("x", kind)
	op.Bytes, op.FLOPs = bytes, flops
	return op
}

func TestPlatformCostShapes(t *testing.T) {
	p := EnvG()
	recv := mkOp(graph.Recv, 100<<20, 0) // 100 MiB
	small := mkOp(graph.Recv, 1<<20, 0)
	if p.Cost(recv) <= p.Cost(small) {
		t.Fatal("bigger transfer should cost more")
	}
	heavy := mkOp(graph.Compute, 0, 1e12)
	light := mkOp(graph.Compute, 0, 1e9)
	if p.Cost(heavy) <= p.Cost(light) {
		t.Fatal("heavier compute should cost more")
	}
	// Fixed overheads dominate for empty ops.
	empty := mkOp(graph.Compute, 0, 0)
	if got := p.Cost(empty); got != p.ComputeOverhead {
		t.Fatalf("empty compute cost = %v", got)
	}
	zeroRecv := mkOp(graph.Recv, 0, 0)
	if got := p.Cost(zeroRecv); got != p.NetLatency {
		t.Fatalf("zero transfer cost = %v", got)
	}
	agg := mkOp(graph.Aggregate, 1<<20, 0)
	if p.Cost(agg) >= p.Cost(small) {
		t.Fatal("PS-side aggregate should be lightweight relative to a transfer of the same size")
	}
}

func TestEnvProfilesDiffer(t *testing.T) {
	g, c := EnvG(), EnvC()
	if g.Name != "envG" || c.Name != "envC" {
		t.Fatal("profile names")
	}
	if g.ComputeFLOPS <= c.ComputeFLOPS {
		t.Fatal("GPU should out-compute CPU")
	}
	if g.NetBandwidth <= c.NetBandwidth {
		t.Fatal("envG network should be faster than 1GbE")
	}
	comp := mkOp(graph.Compute, 0, 1e12)
	if g.Cost(comp) >= c.Cost(comp) {
		t.Fatal("compute should be cheaper on envG")
	}
}

func TestPlatformOracleMatchesCost(t *testing.T) {
	p := EnvC()
	o := p.Oracle()
	op := mkOp(graph.Send, 12345678, 0)
	if o.Time(op) != p.Cost(op) {
		t.Fatal("oracle disagrees with cost")
	}
}

func TestTracerRecordAndSamples(t *testing.T) {
	tr := NewTracer()
	tr.Record("a", 0.5)
	tr.Record("a", 0.3)
	tr.Record("b", 1.0)
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	xs := tr.Samples("a")
	if len(xs) != 2 || xs[0] != 0.5 || xs[1] != 0.3 {
		t.Fatalf("samples = %v", xs)
	}
	// Returned slice is a copy.
	xs[0] = 99
	if tr.Samples("a")[0] != 0.5 {
		t.Fatal("Samples leaked internal state")
	}
	ops := tr.Ops()
	if len(ops) != 2 || ops[0] != "a" || ops[1] != "b" {
		t.Fatalf("ops = %v", ops)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTracerClampsNonPositive(t *testing.T) {
	tr := NewTracer()
	tr.Record("a", -1)
	tr.Record("a", 0)
	for _, x := range tr.Samples("a") {
		if x <= 0 {
			t.Fatalf("non-positive sample survived: %v", x)
		}
	}
}

func TestEstimatorKinds(t *testing.T) {
	tr := NewTracer()
	for _, x := range []float64{0.4, 0.2, 0.6} {
		tr.Record("op", x)
	}
	op := mkOp(graph.Compute, 0, 0)
	opNamed := *op
	opNamed.Name = "op"

	if got := tr.Estimator(EstimateMin, nil).Time(&opNamed); got != 0.2 {
		t.Fatalf("min = %v", got)
	}
	if got := tr.Estimator(EstimateMean, nil).Time(&opNamed); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	if got := tr.Estimator(EstimateLast, nil).Time(&opNamed); got != 0.6 {
		t.Fatalf("last = %v", got)
	}
}

func TestEstimatorFallback(t *testing.T) {
	tr := NewTracer()
	unseen := mkOp(graph.Compute, 0, 1e9)
	unseen.Name = "unseen"
	p := EnvG()
	o := tr.Estimator(EstimateMin, p.Oracle())
	if got := o.Time(unseen); got != p.Cost(unseen) {
		t.Fatalf("fallback = %v, want %v", got, p.Cost(unseen))
	}
	if got := tr.Estimator(EstimateMin, nil).Time(unseen); got != 0 {
		t.Fatalf("nil fallback = %v, want 0", got)
	}
}

func TestEstimateKindString(t *testing.T) {
	if EstimateMin.String() != "min" || EstimateMean.String() != "mean" || EstimateLast.String() != "last" {
		t.Fatal("names")
	}
	if EstimateKind(9).String() == "" {
		t.Fatal("unknown kind")
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record("shared", 0.01)
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Samples("shared")); n != 800 {
		t.Fatalf("samples = %d, want 800", n)
	}
}

// Property: min estimator is a lower bound of all samples and cost is
// monotone in payload.
func TestQuickEstimatorAndCostMonotone(t *testing.T) {
	f := func(raw []float64, bytesRaw uint32) bool {
		tr := NewTracer()
		minSeen := math.Inf(1)
		for _, x := range raw {
			v := math.Abs(x)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				v = 1
			}
			tr.Record("op", v)
			if c := clamp(v); c < minSeen {
				minSeen = c
			}
		}
		if len(raw) > 0 {
			op := mkOp(graph.Compute, 0, 0)
			op.Name = "op"
			got := tr.Estimator(EstimateMin, nil).Time(op)
			if got > minSeen+1e-15 {
				return false
			}
		}
		p := EnvC()
		a := mkOp(graph.Recv, int64(bytesRaw), 0)
		b := mkOp(graph.Recv, int64(bytesRaw)+1024, 0)
		return p.Cost(b) > p.Cost(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func clamp(v float64) float64 {
	if v <= 0 {
		return 1e-9
	}
	return v
}

func TestEnvByName(t *testing.T) {
	for name, want := range map[string]string{"": "envG", "envG": "envG", "ENVG": "envG", "envc": "envC"} {
		if p, err := EnvByName(name); err != nil || p.Name != want {
			t.Errorf("EnvByName(%q) = %q, %v; want %q", name, p.Name, err, want)
		}
	}
	for _, name := range []string{"bogus", "env", "envG "} {
		if _, err := EnvByName(name); err == nil || !strings.Contains(err.Error(), "envG|envC") {
			t.Errorf("EnvByName(%q): err = %v, want one naming the valid envs", name, err)
		}
	}
}
