package model

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tictac/internal/graph"
)

func TestCatalogMatchesTable1(t *testing.T) {
	specs := Catalog()
	if len(specs) != 10 {
		t.Fatalf("catalog size = %d, want 10", len(specs))
	}
	// Spot-check the Table 1 rows.
	want := map[string]struct {
		par      int
		mib      float64
		inf, trn int
		batch    int
	}{
		"AlexNet v2":    {16, 191.89, 235, 483, 512},
		"Inception v3":  {196, 103.54, 1904, 3672, 32},
		"ResNet-50 v2":  {125, 97.45, 1423, 2813, 64},
		"ResNet-101 v2": {244, 169.86, 2749, 5380, 32},
		"VGG-16":        {32, 527.79, 388, 758, 32},
	}
	for name, w := range want {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("model %q missing", name)
		}
		if s.Params != w.par || s.ParamMiB != w.mib || s.OpsInference != w.inf || s.OpsTraining != w.trn || s.Batch != w.batch {
			t.Errorf("%s = %+v, want %+v", name, s, w)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown model")
	}
	if len(Names()) != 10 {
		t.Fatal("Names() size")
	}
}

func TestParamTensorsExactTotals(t *testing.T) {
	for _, s := range Catalog() {
		params := s.ParamTensors()
		if len(params) != s.Params {
			t.Errorf("%s: %d tensors, want %d", s.Name, len(params), s.Params)
		}
		total := TotalBytes(params)
		if total != s.ParamBytes() {
			t.Errorf("%s: total %d bytes, want %d", s.Name, total, s.ParamBytes())
		}
		seen := make(map[string]bool)
		for _, p := range params {
			if p.Bytes < 4 {
				t.Errorf("%s: tensor %s too small (%d)", s.Name, p.Name, p.Bytes)
			}
			if seen[p.Name] {
				t.Errorf("%s: duplicate tensor name %s", s.Name, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

func TestParamTensorsDeterministic(t *testing.T) {
	s, _ := ByName("ResNet-50 v1")
	a, b := s.ParamTensors(), s.ParamTensors()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tensor %d differs between calls", i)
		}
	}
}

func TestSequentialFCDominates(t *testing.T) {
	// VGG-16's byte mass should be dominated by the tail FC tensors,
	// mirroring the real architecture (fc6 is ~74% of VGG-16 bytes).
	s, _ := ByName("VGG-16")
	params := s.ParamTensors()
	var tail, total int64
	for i, p := range params {
		total += p.Bytes
		if i >= len(params)-6 {
			tail += p.Bytes
		}
	}
	if frac := float64(tail) / float64(total); frac < 0.8 {
		t.Fatalf("FC tail fraction = %.2f, want > 0.8", frac)
	}
}

func TestBuildWorkerOpCountsAllModels(t *testing.T) {
	for _, s := range Catalog() {
		for _, mode := range []Mode{Inference, Training} {
			g, err := BuildWorker(s, mode, s.Batch, "worker:0", nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, mode, err)
			}
			if g.Len() != s.Ops(mode) {
				t.Errorf("%s/%s: ops = %d, want %d", s.Name, mode, g.Len(), s.Ops(mode))
			}
		}
	}
}

func TestBuildWorkerShape(t *testing.T) {
	s, _ := ByName("ResNet-50 v1")
	g := MustBuildWorker(s, Training, s.Batch, "worker:0", nil)

	// Every recv is a root, every send is a leaf (§2.2).
	for _, op := range g.OpsOfKind(graph.Recv) {
		if !op.IsRoot() {
			t.Fatalf("recv %s is not a root", op.Name)
		}
		if op.Bytes <= 0 || op.Param == "" {
			t.Fatalf("recv %s missing payload: %+v", op.Name, op)
		}
	}
	for _, op := range g.OpsOfKind(graph.Send) {
		if !op.IsLeaf() {
			t.Fatalf("send %s is not a leaf", op.Name)
		}
	}
	if n := len(g.OpsOfKind(graph.Recv)); n != s.Params {
		t.Fatalf("recv count = %d, want %d", n, s.Params)
	}
	if n := len(g.OpsOfKind(graph.Send)); n != s.Params {
		t.Fatalf("send count = %d, want %d", n, s.Params)
	}
	// Inference graph has no sends.
	gi := MustBuildWorker(s, Inference, s.Batch, "worker:0", nil)
	if n := len(gi.OpsOfKind(graph.Send)); n != 0 {
		t.Fatalf("inference graph has %d sends", n)
	}
}

func TestBuildWorkerChannelFunc(t *testing.T) {
	s, _ := ByName("AlexNet v2")
	calls := make(map[string]int)
	chanFor := func(param string) string {
		calls[param]++
		if len(param)%2 == 0 {
			return "worker:0/net:ps:0"
		}
		return "worker:0/net:ps:1"
	}
	g := MustBuildWorker(s, Training, s.Batch, "worker:0", chanFor)
	if len(calls) != s.Params {
		t.Fatalf("chanFor saw %d params, want %d", len(calls), s.Params)
	}
	res := g.Resources()
	found := map[string]bool{}
	for _, r := range res {
		found[r] = true
	}
	if !found["worker:0/net:ps:0"] || !found["worker:0/net:ps:1"] {
		t.Fatalf("resources = %v", res)
	}
}

func TestBuildWorkerErrors(t *testing.T) {
	s, _ := ByName("VGG-16")
	if _, err := BuildWorker(s, Training, 0, "worker:0", nil); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := BuildWorker(s, Training, 32, "", nil); err == nil {
		t.Fatal("empty device accepted")
	}
	bad := s
	bad.OpsInference = bad.Params // no room for compute ops
	if _, err := BuildWorker(bad, Inference, 32, "worker:0", nil); err == nil {
		t.Fatal("impossible op budget accepted")
	}
}

// TestBuildWorkerRejectsFLOPsOverflow requires a batch whose FLOPs would
// wrap int64 to be an error, not a graph with negative op FLOPs, and a
// batch of 2^20 samples, the cluster layer's cap, to build on the
// heaviest model with every op's FLOPs non-negative.
func TestBuildWorkerRejectsFLOPsOverflow(t *testing.T) {
	s, _ := ByName("AlexNet v2")
	for _, batch := range []int{512 * 300_000_000, 512 * 1_000_000_000, 1 << 50, math.MaxInt} {
		if _, err := BuildWorker(s, Training, batch, "worker:0", nil); err == nil {
			t.Fatalf("batch %d accepted", batch)
		}
	}
	heavy, _ := ByName("VGG-19")
	for _, mode := range []Mode{Training, Inference} {
		g, err := BuildWorker(heavy, mode, 1<<20, "worker:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range g.Ops() {
			if op.FLOPs < 0 {
				t.Fatalf("%s: op %s has %d FLOPs", mode, op.Name, op.FLOPs)
			}
		}
	}
}

func TestBuildWorkerFLOPsScaleWithBatch(t *testing.T) {
	s, _ := ByName("Inception v1")
	sum := func(g *graph.Graph) int64 {
		var total int64
		for _, op := range g.Ops() {
			total += op.FLOPs
		}
		return total
	}
	g1 := MustBuildWorker(s, Inference, 64, "worker:0", nil)
	g2 := MustBuildWorker(s, Inference, 128, "worker:0", nil)
	f1, f2 := sum(g1), sum(g2)
	if f1 <= 0 {
		t.Fatal("zero FLOPs")
	}
	ratio := float64(f2) / float64(f1)
	if math.Abs(ratio-2) > 0.05 {
		t.Fatalf("FLOPs ratio = %.3f, want ~2", ratio)
	}
}

func TestResidualHasSkipEdges(t *testing.T) {
	s, _ := ByName("ResNet-50 v1")
	g := MustBuildWorker(s, Inference, s.Batch, "worker:0", nil)
	// Skip edges manifest as compute ops with >= 2 compute inputs.
	merges := 0
	for _, op := range g.Ops() {
		if op.Kind != graph.Compute {
			continue
		}
		computeIns := 0
		for _, in := range op.In() {
			if in.Kind == graph.Compute {
				computeIns++
			}
		}
		if computeIns >= 2 {
			merges++
		}
	}
	if merges < 10 {
		t.Fatalf("residual model has only %d merge ops", merges)
	}
}

func TestInceptionHasParallelBranches(t *testing.T) {
	s, _ := ByName("Inception v1")
	g := MustBuildWorker(s, Inference, s.Batch, "worker:0", nil)
	concats := 0
	for _, op := range g.Ops() {
		if op.Kind == graph.Compute && op.NumIn() >= 4 {
			concats++
		}
	}
	if concats < 10 {
		t.Fatalf("inception model has only %d concat-like ops", concats)
	}
}

func TestFamilyAndModeStrings(t *testing.T) {
	if Sequential.String() != "sequential" || Residual.String() != "residual" || Inception.String() != "inception" {
		t.Fatal("family names")
	}
	if Family(9).String() == "" {
		t.Fatal("unknown family")
	}
	if Inference.String() != "inference" || Training.String() != "training" {
		t.Fatal("mode names")
	}
}

func TestSortBySizeDesc(t *testing.T) {
	ps := []Param{{"a", 4}, {"b", 16}, {"c", 8}}
	sorted := SortBySizeDesc(ps)
	if sorted[0].Name != "b" || sorted[1].Name != "c" || sorted[2].Name != "a" {
		t.Fatalf("sorted = %v", sorted)
	}
	if ps[0].Name != "a" {
		t.Fatal("input mutated")
	}
}

// Property: distribute() always sums to total with every part >= floor.
func TestQuickDistribute(t *testing.T) {
	f := func(totRaw, nRaw uint16) bool {
		n := 1 + int(nRaw%200)
		total := n + int(totRaw%5000)
		parts := distribute(total, n)
		sum := 0
		for _, p := range parts {
			if p < 1 {
				return false
			}
			sum += p
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every catalog model builds a valid DAG whose recv payload total
// equals the Table 1 parameter bytes, in both modes.
func TestQuickCatalogGraphInvariants(t *testing.T) {
	for _, s := range Catalog() {
		for _, mode := range []Mode{Inference, Training} {
			g := MustBuildWorker(s, mode, s.Batch, "worker:0", nil)
			if err := g.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", s.Name, mode, err)
			}
			var recvBytes int64
			for _, op := range g.OpsOfKind(graph.Recv) {
				recvBytes += op.Bytes
			}
			if recvBytes != s.ParamBytes() {
				t.Fatalf("%s/%s: recv bytes %d != %d", s.Name, mode, recvBytes, s.ParamBytes())
			}
		}
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{
		"": Training, "training": Training, "Train": Training,
		"inference": Inference, "INFER": Inference,
	} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"bogus", "inf", " training"} {
		if _, err := ParseMode(name); err == nil || !strings.Contains(err.Error(), "training|inference") {
			t.Errorf("ParseMode(%q): err = %v, want one naming the valid modes", name, err)
		}
	}
}

// TestIndexedMatchesSprintf pins template op names to the form fmt's %03d
// gives them, across the padding widths and past 999, where %03d stops
// padding.
func TestIndexedMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 42, 99, 100, 999, 1000, 1234, 99999, 1 << 40} {
		if got, want := indexed("bwd/l", i), fmt.Sprintf("bwd/l%03d", i); got != want {
			t.Errorf("indexed(%d) = %q, want %q", i, got, want)
		}
	}
}
