package graph

import "fmt"

// Kind classifies an operation in a partitioned computational graph.
//
// The parameter-server execution model (paper §2.2) uses five op kinds on
// the PS per parameter — aggregate, send, recv, read, update — plus ordinary
// compute ops on the workers. Communication kinds (Recv, Send) are placed on
// network-channel resources; everything else is placed on a compute resource.
type Kind uint8

const (
	// Compute is a computation op (conv, matmul, activation, gradient, ...).
	Compute Kind = iota
	// Recv receives a tensor over a network channel. Recv ops are the roots
	// of a worker partition and the unit TicTac schedules.
	Recv
	// Send transmits a tensor over a network channel. Send ops are leaves of
	// a worker partition.
	Send
	// Aggregate sums gradient shards arriving from workers (PS side).
	Aggregate
	// Read loads a parameter value for serving (PS side).
	Read
	// Update applies an aggregated gradient to a parameter (PS side).
	Update
	// Variable models a stateful parameter slot (source of Read, sink of Update).
	Variable
)

var kindNames = [...]string{
	Compute:   "compute",
	Recv:      "recv",
	Send:      "send",
	Aggregate: "aggregate",
	Read:      "read",
	Update:    "update",
	Variable:  "variable",
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsCommunication reports whether ops of this kind occupy a network channel.
func (k Kind) IsCommunication() bool { return k == Recv || k == Send }

// Op is a single node of a partitioned computational graph.
//
// An Op is created by Graph.AddOp and wired with Graph.Connect; the
// navigation methods (In, Out) expose the adjacency read-only. The struct
// is 120 bytes on 64-bit platforms: both adjacency lists share one array,
// predecessors first, with the in-degree packed beside Kind.
type Op struct {
	// ID is the dense index of the op inside its Graph, assigned by AddOp.
	ID int
	// Name uniquely identifies the op inside its Graph.
	Name string
	// Kind classifies the op (compute, recv, send, ...).
	Kind Kind
	// numIn is the in-degree: adj[:numIn] are the predecessors.
	numIn int32
	// Device names the partition the op is assigned to, e.g. "worker:0" or
	// "ps:1". Scheduling operates per device; the simulator runs all devices.
	Device string
	// Resource names the execution unit inside the device that the op
	// occupies, e.g. "worker:0/compute" or "worker:0/net:ps:1". Exactly one
	// op can run on a resource at a time.
	Resource string
	// Bytes is the payload size for communication ops (transfer volume).
	Bytes int64
	// FLOPs is the arithmetic work for compute ops.
	FLOPs int64
	// Param is the parameter-tensor name for parameter-related ops
	// (recv/send/aggregate/read/update/variable); empty otherwise.
	Param string

	// adj holds the predecessors in Connect order, then the successors in
	// Connect order.
	adj []*Op
}

// addIn records from as the op's last predecessor, ahead of every
// successor.
func (o *Op) addIn(from *Op) {
	o.adj = append(o.adj, nil)
	copy(o.adj[o.numIn+1:], o.adj[o.numIn:])
	o.adj[o.numIn] = from
	o.numIn++
}

// In returns the direct predecessors of the op, in the order Connect added
// them. The slice shares the op's storage, so callers must not modify its
// elements; its capacity ends at its length, so an append copies. Once
// the graph is frozen the op's adjacency never changes.
func (o *Op) In() []*Op { return o.adj[:o.numIn:o.numIn] }

// Out returns the direct successors of the op, in the order Connect added
// them, under the same rules as In. Until the graph is frozen, a Connect
// into the op moves its successors within the shared storage, so a
// result taken before that Connect is stale.
func (o *Op) Out() []*Op { return o.adj[o.numIn:len(o.adj):len(o.adj)] }

// NumIn returns the in-degree of the op.
func (o *Op) NumIn() int { return int(o.numIn) }

// NumOut returns the out-degree of the op.
func (o *Op) NumOut() int { return len(o.adj) - int(o.numIn) }

// IsRoot reports whether the op has no predecessors.
func (o *Op) IsRoot() bool { return o.numIn == 0 }

// IsLeaf reports whether the op has no successors.
func (o *Op) IsLeaf() bool { return len(o.adj) == int(o.numIn) }

// String renders a compact human-readable description of the op.
func (o *Op) String() string {
	return fmt.Sprintf("%s(%s)@%s", o.Name, o.Kind, o.Device)
}
