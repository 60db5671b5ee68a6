package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"sort"
	"testing"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/timing"
)

// This file keeps a frozen copy of the cluster graph construction as it
// was before Build stamped replicas from one worker template: one
// model.BuildWorker call per worker, each replica copied in by name and
// wired to the PS side through name lookups, the reference worker scanned
// out of the whole graph, and the graph digest written field by field.
// Build, ReferenceWorker and core.GraphDigest are pinned to it op for op.

// refBuild is the frozen per-worker construction of the cluster graph.
func refBuild(cfg Config) (*graph.Graph, error) {
	params := cfg.Model.ParamTensors()
	shard := shardParams(params, cfg.PS)
	iters := cfg.iterations()

	full := graph.New()

	vars := make(map[string]*graph.Op, len(params))
	for _, p := range params {
		dev := PSDevice(shard[p.Name])
		v := full.MustAddOp(dev+"/var/"+p.Name, graph.Variable)
		v.Device, v.Resource, v.Param, v.Bytes = dev, dev+"/compute", p.Name, p.Bytes
		vars[p.Name] = v
	}
	prevUpdate := make(map[string]*graph.Op, len(params))
	for _, p := range params {
		prevUpdate[p.Name] = vars[p.Name]
	}
	prevWorkerDone := make([][]*graph.Op, cfg.Workers)

	for it := 0; it < iters; it++ {
		ipfx := ""
		if iters > 1 {
			ipfx = fmt.Sprintf("i%d/", it)
		}
		reads := make(map[string]*graph.Op, len(params))
		for _, p := range params {
			dev := PSDevice(shard[p.Name])
			r := full.MustAddOp(dev+"/"+ipfx+"read/"+p.Name, graph.Read)
			r.Device, r.Resource, r.Param, r.Bytes = dev, dev+"/compute", p.Name, p.Bytes
			full.MustConnect(prevUpdate[p.Name], r)
			reads[p.Name] = r
		}
		for w := 0; w < cfg.Workers; w++ {
			dev := WorkerDevice(w)
			chanFor := func(param string) string {
				if cfg.SharedPSNIC {
					return PSDevice(shard[param]) + "/net"
				}
				return ChannelResource(w, shard[param])
			}
			wg, err := model.BuildWorker(cfg.Model, cfg.Mode, cfg.Batch(), dev, chanFor)
			if err != nil {
				return nil, err
			}
			prefix := fmt.Sprintf("%sw%d/", ipfx, w)
			if err := refCopyInto(full, wg, prefix); err != nil {
				return nil, err
			}
			for _, op := range wg.OpsOfKind(graph.Recv) {
				recv := full.Op(prefix + op.Name)
				full.MustConnect(reads[op.Param], recv)
				for _, done := range prevWorkerDone[w] {
					full.MustConnect(done, recv)
				}
			}
			if cfg.Mode == model.Inference {
				var leaves []*graph.Op
				for _, op := range wg.Leaves() {
					leaves = append(leaves, full.Op(prefix+op.Name))
				}
				prevWorkerDone[w] = leaves
			}
		}
		if cfg.Mode == model.Training {
			for _, p := range params {
				dev := PSDevice(shard[p.Name])
				agg := full.MustAddOp(dev+"/"+ipfx+"agg/"+p.Name, graph.Aggregate)
				agg.Device, agg.Resource, agg.Param = dev, dev+"/compute", p.Name
				agg.Bytes = p.Bytes * int64(cfg.Workers)
				upd := full.MustAddOp(dev+"/"+ipfx+"update/"+p.Name, graph.Update)
				upd.Device, upd.Resource, upd.Param, upd.Bytes = dev, dev+"/compute", p.Name, p.Bytes
				full.MustConnect(agg, upd)
				for w := 0; w < cfg.Workers; w++ {
					send := full.Op(fmt.Sprintf("%sw%d/send/grad/%s", ipfx, w, p.Name))
					if send == nil {
						return nil, fmt.Errorf("cluster: missing send op for %s on worker %d", p.Name, w)
					}
					full.MustConnect(send, agg)
				}
				prevUpdate[p.Name] = upd
			}
		}
	}
	if err := full.Validate(); err != nil {
		return nil, err
	}
	return full, nil
}

// refCopyInto is the frozen by-name replica copy.
func refCopyInto(dst, src *graph.Graph, prefix string) error {
	for _, op := range src.Ops() {
		c, err := dst.AddOp(prefix+op.Name, op.Kind)
		if err != nil {
			return err
		}
		c.Device, c.Resource = op.Device, op.Resource
		c.Bytes, c.FLOPs, c.Param = op.Bytes, op.FLOPs, op.Param
	}
	for _, op := range src.Ops() {
		from := dst.Op(prefix + op.Name)
		for _, succ := range op.Out() {
			if err := dst.Connect(from, dst.Op(prefix+succ.Name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// refReferenceWorker is the frozen whole-graph scan for worker 0's
// first-iteration partition.
func refReferenceWorker(g *graph.Graph, prefix string) *graph.Graph {
	device := WorkerDevice(0)
	out := graph.New()
	strip := func(name string) (string, bool) {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			return name[len(prefix):], true
		}
		return "", false
	}
	for _, op := range g.Ops() {
		if op.Device != device {
			continue
		}
		name, ok := strip(op.Name)
		if !ok {
			continue
		}
		n := out.MustAddOp(name, op.Kind)
		n.Device, n.Resource = op.Device, op.Resource
		n.Bytes, n.FLOPs, n.Param = op.Bytes, op.FLOPs, op.Param
	}
	for _, op := range g.Ops() {
		from, ok := strip(op.Name)
		if !ok || op.Device != device {
			continue
		}
		for _, succ := range op.Out() {
			to, ok := strip(succ.Name)
			if !ok || succ.Device != device {
				continue
			}
			out.MustConnect(out.Op(from), out.Op(to))
		}
	}
	return out
}

// refGraphDigest is the frozen field-by-field graph digest.
func refGraphDigest(g *graph.Graph) string {
	h := sha256.New()
	writeInt := func(h hash.Hash, v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeString := func(h hash.Hash, s string) {
		writeInt(h, int64(len(s)))
		h.Write([]byte(s))
	}
	ops := append([]*graph.Op(nil), g.Ops()...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	for _, op := range ops {
		writeString(h, op.Name)
		h.Write([]byte{byte(op.Kind)})
		writeString(h, op.Device)
		writeString(h, op.Resource)
		writeInt(h, op.Bytes)
		writeInt(h, op.FLOPs)
		writeString(h, op.Param)
		succs := make([]string, 0, len(op.Out()))
		for _, s := range op.Out() {
			succs = append(succs, s.Name)
		}
		sort.Strings(succs)
		writeInt(h, int64(len(succs)))
		for _, s := range succs {
			writeString(h, s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opIDs lists ops' IDs in slice order.
func opIDs(ops []*graph.Op) []int {
	ids := make([]int, len(ops))
	for i, op := range ops {
		ids[i] = op.ID
	}
	return ids
}

// mustEqualGraph fails unless got and want are the same graph op for op:
// ID, name, kind, tags, payloads, and In and Out by ID in order.
func mustEqualGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d ops/%d edges, frozen build has %d/%d",
			label, got.Len(), got.NumEdges(), want.Len(), want.NumEdges())
	}
	for i, g := range got.Ops() {
		w := want.Ops()[i]
		if g.ID != w.ID || g.Name != w.Name || g.Kind != w.Kind ||
			g.Device != w.Device || g.Resource != w.Resource ||
			g.Bytes != w.Bytes || g.FLOPs != w.FLOPs || g.Param != w.Param {
			t.Fatalf("%s: op %d is %+v, frozen build has %+v", label, i, *g, *w)
		}
		if !slices.Equal(opIDs(g.In()), opIDs(w.In())) || !slices.Equal(opIDs(g.Out()), opIDs(w.Out())) {
			t.Fatalf("%s: op %s edges %v -> %v, frozen build %v -> %v", label, g.Name,
				opIDs(g.In()), opIDs(g.Out()), opIDs(w.In()), opIDs(w.Out()))
		}
	}
}

// frozenShapes are the worker × PS shapes the frozen-build parity covers.
// The race detector slows graph construction about tenfold, so a race
// build drops the 16 × 8 shape, whose graphs it would spend minutes on.
func frozenShapes() [][2]int {
	shapes := [][2]int{{1, 1}, {2, 1}, {4, 2}, {3, 3}}
	if !raceEnabled {
		shapes = append(shapes, [2]int{16, 8})
	}
	return shapes
}

// TestBuildMatchesFrozenBuild pins the template-stamped Build, the
// template-built reference worker and the one-buffer graph digest to the
// frozen per-worker construction, for every Table 1 model in both modes
// over several shapes, one and two iterations, with and without a shared
// PS NIC. A WithPlatforms child's reference worker is pinned too, and so
// is every configuration compacted, once two GCs have collected its graph
// and reference worker: the reference worker, built again from the
// template, and the graph, rebuilt, are the frozen ones.
func TestBuildMatchesFrozenBuild(t *testing.T) {
	for _, spec := range model.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			var compacted []frozenCheck
			for _, mode := range []model.Mode{model.Training, model.Inference} {
				for _, shape := range frozenShapes() {
					for _, iters := range []int{1, 2} {
						for _, nic := range []bool{false, true} {
							cfg := Config{Model: spec, Mode: mode, Workers: shape[0], PS: shape[1],
								Iterations: iters, SharedPSNIC: nic, Platform: timing.EnvG()}
							label := fmt.Sprintf("%s/%s/%dx%d/iters=%d/nic=%v", spec.Name, mode, shape[0], shape[1], iters, nic)
							compacted = append(compacted, checkFrozenBuild(t, label, cfg))
						}
					}
				}
			}
			runtime.GC()
			runtime.GC()
			for _, fc := range compacted {
				fc.check(t)
			}
		})
	}
}

// frozenCheck is a compacted cluster and the exact digests (see
// exactDigest) of its frozen graph and reference worker.
type frozenCheck struct {
	label      string
	c          *Cluster
	graph, ref string
}

// checkFrozenBuild pins cfg's build to the frozen construction and returns
// the cluster compacted, for check once a GC has collected its graph.
func checkFrozenBuild(t *testing.T, label string, cfg Config) frozenCheck {
	t.Helper()
	c, err := Build(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := refBuild(c.Config)
	if err != nil {
		t.Fatalf("%s: frozen build: %v", label, err)
	}
	mustEqualGraph(t, label, c.Graph, want)
	if got, w := core.GraphDigest(c.Graph), refGraphDigest(want); got != w {
		t.Fatalf("%s: graph digest %s, frozen digest %s", label, got, w)
	}
	wantRef := refReferenceWorker(want, c.refPrefix())
	ref := c.ReferenceWorker()
	mustEqualGraph(t, label+"/reference", ref, wantRef)
	if got, w := core.GraphDigest(ref), refGraphDigest(wantRef); got != w {
		t.Fatalf("%s: reference digest %s, frozen digest %s", label, got, w)
	}
	child, err := c.WithPlatforms(timing.EnvC(), nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	mustEqualGraph(t, label+"/child-reference", child.held.buildReferenceWorker(), wantRef)
	if err := c.Compact(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return frozenCheck{label: label, c: c, graph: exactDigest(want), ref: exactDigest(wantRef)}
}

// check requires the compacted cluster's graph and reference worker to be
// collected, and the reference worker built again and the rebuilt graph to
// be the frozen ones.
func (fc frozenCheck) check(t *testing.T) {
	t.Helper()
	h := fc.c.held
	if h.holdsGraph() || h.holdsReference() {
		t.Fatalf("%s: a compacted cluster's graph or reference worker survived two GCs", fc.label)
	}
	if got := exactDigest(fc.c.ReferenceWorker()); got != fc.ref {
		t.Fatalf("%s: the reference worker built again differs from the frozen one", fc.label)
	}
	g, err := fc.c.graph()
	if err != nil {
		t.Fatalf("%s: rebuilding the graph: %v", fc.label, err)
	}
	if got := exactDigest(g); got != fc.graph {
		t.Fatalf("%s: the rebuilt graph differs from the frozen one", fc.label)
	}
}

// holdsReference reports whether the holder's weak pointer to the
// reference worker still resolves.
func (h *graphHolder) holdsReference() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ref.Value() != nil
}

// exactDigest hashes everything mustEqualGraph compares: every op in ID
// order with its fields, and its In and Out IDs in order.
func exactDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeString := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, op := range g.Ops() {
		writeInt(int64(op.ID))
		writeString(op.Name)
		h.Write([]byte{byte(op.Kind)})
		writeString(op.Device)
		writeString(op.Resource)
		writeInt(op.Bytes)
		writeInt(op.FLOPs)
		writeString(op.Param)
		for _, adj := range [][]*graph.Op{op.In(), op.Out()} {
			writeInt(int64(len(adj)))
			for _, o := range adj {
				writeInt(int64(o.ID))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConfigOpsMatchesBuild pins Config.Ops, the op count predicted from
// the model spec alone, to the graph Build produces.
func TestConfigOpsMatchesBuild(t *testing.T) {
	shapes := [][2]int{{1, 1}, {4, 2}}
	if !raceEnabled {
		shapes = append(shapes, [2]int{16, 8})
	}
	for _, spec := range model.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []model.Mode{model.Training, model.Inference} {
				for _, shape := range shapes {
					for _, iters := range []int{1, 3} {
						for _, nic := range []bool{false, true} {
							cfg := Config{Model: spec, Mode: mode, Workers: shape[0], PS: shape[1],
								Iterations: iters, SharedPSNIC: nic, Platform: timing.EnvG()}
							c, err := Build(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got, want := cfg.Ops(), c.Graph.Len(); got != want {
								t.Fatalf("%s/%dx%d/iters=%d/nic=%v: Ops() = %d, Build made %d",
									mode, shape[0], shape[1], iters, nic, got, want)
							}
						}
					}
				}
			}
		})
	}
}
