// Package timing provides the cost model, platform profiles, runtime tracer
// and time-oracle estimator of the TicTac system (§5: tracing module + time
// oracle estimator).
//
// All durations are in seconds (float64).
package timing

import (
	"fmt"
	"strings"

	"tictac/internal/graph"
)

// Oracle predicts the dedicated-resource execution time of an op (§3.1):
// elapsed time on its compute resource for computation ops, transfer time on
// its channel for communication ops.
type Oracle interface {
	// Time returns the predicted execution time of op in seconds.
	Time(op *graph.Op) float64
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(op *graph.Op) float64

// Time implements Oracle.
func (f OracleFunc) Time(op *graph.Op) float64 { return f(op) }

// Platform is a cost model of an execution environment. It plays the role
// of the authors' testbed hardware: given an op's payload (FLOPs or bytes),
// it yields the op's dedicated-resource runtime.
//
// Platform is a plain value type: copy it freely and treat every copy as
// immutable. Cost and Oracle are pure functions of the value, so one
// Platform may serve any number of concurrent simulator runs.
type Platform struct {
	// Name identifies the profile ("envG", "envC").
	Name string
	// ComputeFLOPS is the sustained compute throughput in FLOP/s.
	ComputeFLOPS float64
	// ComputeOverhead is the fixed per-op cost on the compute resource
	// (kernel launch / op dispatch), in seconds.
	ComputeOverhead float64
	// NetBandwidth is the per-channel network throughput in bytes/s.
	NetBandwidth float64
	// NetLatency is the fixed per-transfer setup cost in seconds
	// (RPC framing, Figure 6 request/response overheads).
	NetLatency float64
	// MemBandwidth is the PS-side memory throughput in bytes/s used by the
	// lightweight aggregate/read/update ops (§2.2: "aggregation, read and
	// update on PS are typically lightweight").
	MemBandwidth float64
	// Jitter is the relative standard deviation of measured op durations,
	// modelling system noise seen by the tracer.
	Jitter float64
}

// EnvG returns the cloud GPU environment profile (§6 setup: Azure NC6
// workers with one K80 each, F64s v2 parameter servers).
func EnvG() Platform {
	return Platform{
		Name:            "envG",
		ComputeFLOPS:    2.0e12, // effective K80 fp32 throughput
		ComputeOverhead: 15e-6,  // CUDA kernel launch
		NetBandwidth:    5.0e8,  // ~4 Gb/s effective per worker-PS channel
		NetLatency:      200e-6,
		MemBandwidth:    1.0e10,
		Jitter:          0.04,
	}
}

// EnvC returns the high-end CPU cluster profile (§6 setup: 32-core machines,
// 1 GbE network).
func EnvC() Platform {
	return Platform{
		Name:            "envC",
		ComputeFLOPS:    2.0e11, // 32-core AVX effective throughput
		ComputeOverhead: 5e-6,
		NetBandwidth:    1.25e8, // 1 GbE
		NetLatency:      100e-6,
		MemBandwidth:    1.0e10,
		Jitter:          0.06,
	}
}

// EnvByName resolves a platform profile name, in any case: "envG" (also ""
// as the default) or "envC".
func EnvByName(name string) (Platform, error) {
	switch strings.ToLower(name) {
	case "", "envg":
		return EnvG(), nil
	case "envc":
		return EnvC(), nil
	}
	return Platform{}, fmt.Errorf("unknown env %q (envG|envC)", name)
}

// Cost returns the dedicated-resource execution time of op on the platform.
// This is the ground truth the simulator executes and the quantity the time
// oracle estimates from traces.
func (p Platform) Cost(op *graph.Op) float64 {
	switch op.Kind {
	case graph.Recv, graph.Send:
		return p.NetLatency + float64(op.Bytes)/p.NetBandwidth
	case graph.Aggregate, graph.Read, graph.Update, graph.Variable:
		return p.ComputeOverhead + float64(op.Bytes)/p.MemBandwidth
	default:
		return p.ComputeOverhead + float64(op.FLOPs)/p.ComputeFLOPS
	}
}

// Oracle returns the exact-cost oracle of the platform.
func (p Platform) Oracle() Oracle {
	return OracleFunc(p.Cost)
}
