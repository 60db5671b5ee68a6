package model

import (
	"fmt"
	"strconv"
	"strings"

	"tictac/internal/graph"
)

// Mode selects which worker graph to build.
type Mode uint8

const (
	// Inference builds the forward-only graph used by the paper's
	// reinforcement-learning inference agents: recv every parameter from the
	// PS, run the forward pass, no gradient sends.
	Inference Mode = iota
	// Training builds the full graph: recvs, forward pass, backward pass and
	// one gradient send per parameter.
	Training
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Inference {
		return "inference"
	}
	return "training"
}

// ParseMode resolves a mode name, in any case: "training" (also "train",
// and "" as the default) or "inference" (also "infer").
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "", "training", "train":
		return Training, nil
	case "inference", "infer":
		return Inference, nil
	}
	return Training, fmt.Errorf("unknown mode %q (training|inference)", name)
}

// Ops returns the op count of the worker graph this spec produces in the
// given mode (the Table 1 "#Ops" column).
func (s Spec) Ops(mode Mode) int {
	if mode == Inference {
		return s.OpsInference
	}
	return s.OpsTraining
}

// ChannelFunc maps a parameter-tensor name to the network-channel resource
// its recv (and gradient send) occupies, e.g. "worker:0/net:ps:1". It
// realizes the parameter→PS sharding chosen by the cluster builder.
type ChannelFunc func(param string) string

// BuildWorker constructs the partitioned worker DAG for one worker.
//
// The graph reproduces the worker-partition shape of §2.2: every recv op is
// a root, every send op is a leaf, and the compute body follows the model
// family's topology. The op count equals spec.Ops(mode) exactly; recv/send
// payload sizes come from ParamTensors; compute-op FLOPs are distributed
// across layers proportionally to layer parameter bytes and scale linearly
// with batch.
//
// device tags all ops (e.g. "worker:3"); chanFor supplies the network
// resource per parameter. A nil chanFor places all transfers on a single
// channel device+"/net:ps:0".
func BuildWorker(spec Spec, mode Mode, batch int, device string, chanFor ChannelFunc) (*graph.Graph, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("model: batch must be positive, got %d", batch)
	}
	if device == "" {
		return nil, fmt.Errorf("model: empty device")
	}
	if chanFor == nil {
		def := device + "/net:ps:0"
		chanFor = func(string) string { return def }
	}
	params := spec.ParamTensors()
	p := len(params)
	layers := groupLayers(params)
	l := len(layers)

	concats := 0
	if spec.Family == Inception {
		concats = (l + 3) / 4
	}
	cf := spec.OpsInference - p - concats
	if cf < l {
		return nil, fmt.Errorf("model %s: forward budget %d < layers %d", spec.Name, cf, l)
	}
	fwdBudget := distribute(cf, l)

	var bwdBudget []int
	if mode == Training {
		cb := spec.OpsTraining - spec.OpsInference - p
		if cb < l {
			return nil, fmt.Errorf("model %s: backward budget %d < layers %d", spec.Name, cb, l)
		}
		bwdBudget = distribute(cb, l)
	}

	// FLOPs: total forward work split across layers proportionally to layer
	// parameter bytes; the backward pass costs 2x the forward per layer.
	totalFwdFLOPs := spec.ForwardGFLOPs * 1e9 * float64(batch)
	if !(3*totalFwdFLOPs < maxWorkerFLOPs) {
		return nil, fmt.Errorf("model %s: batch %d needs %.3g FLOPs per worker pass, above the limit of %.3g",
			spec.Name, batch, 3*totalFwdFLOPs, float64(maxWorkerFLOPs))
	}
	layerFLOPs := splitFLOPs(totalFwdFLOPs, layers)

	g := graph.NewSized(spec.Ops(mode))
	compute := device + "/compute"

	// Recv roots.
	recvs := make(map[string]*graph.Op, p)
	for _, pr := range params {
		op := g.MustAddOp("recv/"+pr.Name, graph.Recv)
		op.Device = device
		op.Resource = chanFor(pr.Name)
		op.Bytes = pr.Bytes
		op.Param = pr.Name
		recvs[pr.Name] = op
	}

	addCompute := func(name string, flops int64) *graph.Op {
		op := g.MustAddOp(name, graph.Compute)
		op.Device = device
		op.Resource = compute
		op.FLOPs = flops
		return op
	}
	connectOnce := func(from, to *graph.Op) {
		if from == nil || from == to {
			return
		}
		for _, in := range to.In() {
			if in == from {
				return
			}
		}
		g.MustConnect(from, to)
	}

	// Forward pass.
	fwdLast := make([]*graph.Op, l) // last forward op per layer
	var prev *graph.Op
	switch spec.Family {
	case Sequential, Residual:
		var blockInput *graph.Op
		for i, layer := range layers {
			chain := buildChain(g, addCompute, indexed("fwd/l", i), fwdBudget[i],
				perOpFLOPs(layerFLOPs[i], fwdBudget[i]))
			for _, pr := range layer {
				connectOnce(recvs[pr.Name], chain[0])
			}
			connectOnce(prev, chain[0])
			last := chain[len(chain)-1]
			if spec.Family == Residual {
				if i%2 == 1 || i == l-1 { // block boundary: add skip edge
					connectOnce(blockInput, last)
					blockInput = last
				}
				if i%2 == 0 && blockInput == nil {
					blockInput = last // first block seeds the skip chain
				}
			}
			fwdLast[i] = last
			prev = last
		}
	case Inception:
		for m := 0; m*4 < l; m++ {
			moduleInput := prev
			lo, hi := m*4, min((m+1)*4, l)
			branchLast := make([]*graph.Op, 0, hi-lo)
			for i := lo; i < hi; i++ {
				chain := buildChain(g, addCompute, indexed("fwd/l", i), fwdBudget[i],
					perOpFLOPs(layerFLOPs[i], fwdBudget[i]))
				for _, pr := range layers[i] {
					connectOnce(recvs[pr.Name], chain[0])
				}
				connectOnce(moduleInput, chain[0])
				fwdLast[i] = chain[len(chain)-1]
				branchLast = append(branchLast, fwdLast[i])
			}
			concat := addCompute(indexed("fwd/m", m)+"/concat", 0)
			for _, b := range branchLast {
				connectOnce(b, concat)
			}
			prev = concat
		}
	}

	// Backward pass and gradient sends.
	if mode == Training {
		bprev := prev // gradient flows back from the tail of the forward pass
		for i := l - 1; i >= 0; i-- {
			chain := buildChain(g, addCompute, indexed("bwd/l", i), bwdBudget[i],
				perOpFLOPs(2*layerFLOPs[i], bwdBudget[i]))
			connectOnce(bprev, chain[0])
			connectOnce(fwdLast[i], chain[0]) // activations needed by backprop
			last := chain[len(chain)-1]
			for _, pr := range layers[i] {
				send := g.MustAddOp("send/grad/"+pr.Name, graph.Send)
				send.Device = device
				send.Resource = chanFor(pr.Name)
				send.Bytes = pr.Bytes
				send.Param = pr.Name
				g.MustConnect(last, send)
			}
			bprev = last
		}
	}

	if got := g.Len(); got != spec.Ops(mode) {
		return nil, fmt.Errorf("model %s/%s: built %d ops, want %d", spec.Name, mode, got, spec.Ops(mode))
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("model %s/%s: %w", spec.Name, mode, err)
	}
	return g, nil
}

// maxWorkerFLOPs bounds one worker pass, forward plus a backward pass at
// twice the forward work. Op FLOPs are int64, and this keeps every layer's
// FLOPs, and twice them, far from overflow.
const maxWorkerFLOPs = 1 << 62

// MustBuildWorker is BuildWorker that panics on error; the catalog specs are
// all buildable, so failures indicate programmer error.
func MustBuildWorker(spec Spec, mode Mode, batch int, device string, chanFor ChannelFunc) *graph.Graph {
	g, err := BuildWorker(spec, mode, batch, device, chanFor)
	if err != nil {
		panic(err)
	}
	return g
}

// groupLayers pairs parameter tensors (weight+bias) into layers.
func groupLayers(params []Param) [][]Param {
	var layers [][]Param
	for i := 0; i < len(params); i += 2 {
		hi := min(i+2, len(params))
		layers = append(layers, params[i:hi])
	}
	return layers
}

// distribute splits total into n non-negative parts, each >= 1, spreading
// the remainder over the leading parts.
func distribute(total, n int) []int {
	out := make([]int, n)
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// splitFLOPs apportions the total forward FLOPs across layers proportionally
// to layer parameter bytes.
func splitFLOPs(total float64, layers [][]Param) []int64 {
	weights := make([]float64, len(layers))
	sum := 0.0
	for i, layer := range layers {
		for _, p := range layer {
			weights[i] += float64(p.Bytes)
		}
		sum += weights[i]
	}
	out := make([]int64, len(layers))
	for i := range out {
		out[i] = int64(total * weights[i] / sum)
	}
	return out
}

func perOpFLOPs(layerFLOPs int64, chainLen int) int64 {
	if chainLen <= 0 {
		return layerFLOPs
	}
	return layerFLOPs / int64(chainLen)
}

// buildChain creates n chained compute ops named prefix/opNNN and returns
// them in order.
func buildChain(g *graph.Graph, add func(string, int64) *graph.Op, prefix string, n int, flops int64) []*graph.Op {
	chain := make([]*graph.Op, n)
	stem := prefix + "/op"
	for j := 0; j < n; j++ {
		chain[j] = add(indexed(stem, j), flops)
		if j > 0 {
			g.MustConnect(chain[j-1], chain[j])
		}
	}
	return chain
}

// indexed returns stem followed by i in decimal, zero-padded to three
// digits as fmt's %03d prints a non-negative int: an index of 1000 or
// more prints in full.
func indexed(stem string, i int) string {
	var buf [64]byte
	b := append(buf[:0], stem...)
	for w := 100; w > 1 && i < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}
