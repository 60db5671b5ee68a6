package graph

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadGraphJSON feeds arbitrary bytes to the graph decoder. It must
// never panic, and a graph it accepts must re-encode to the same WriteJSON
// bytes after a second round trip, and still validate with the same
// adjacency and bytes once frozen. The seeds are small and hand-written on
// purpose: large seeds stall the mutator.
func FuzzReadGraphJSON(f *testing.F) {
	f.Add([]byte(`{"ops": [
		{"name": "root", "kind": "compute", "device": "worker:0", "resource": "worker:0/compute"},
		{"name": "a", "kind": "compute", "device": "worker:0", "resource": "worker:0/compute"},
		{"name": "b", "kind": "compute", "device": "worker:0", "resource": "worker:0/compute"},
		{"name": "sink", "kind": "compute", "device": "worker:0", "resource": "worker:0/compute"}
	], "edges": [["root", "a"], ["root", "b"], ["a", "sink"], ["b", "sink"]]}`))
	f.Add([]byte(`{"ops": [
		{"name": "recv/p0", "kind": "recv", "device": "worker:0", "resource": "worker:0/net", "bytes": 4096, "param": "p0"},
		{"name": "mm", "kind": "compute", "device": "worker:0", "resource": "worker:0/compute", "flops": 1000000000},
		{"name": "send/p0", "kind": "send", "device": "worker:0", "resource": "worker:0/net", "bytes": 4096, "param": "p0"}
	], "edges": [["recv/p0", "mm"], ["mm", "send/p0"]]}`))
	f.Add([]byte(`{"ops": [
		{"name": "a", "kind": "compute", "device": "d", "resource": "r", "flops": -5000000000000},
		{"name": "b", "kind": "compute", "device": "d", "resource": "r"}
	], "edges": [["a", "b"]]} trailing garbage`))
	f.Add([]byte(`{"ops": [{"name": "a", "kind": "compute", "device": "d", "resource": "r"},
		{"name": "b", "kind": "compute", "device": "d", "resource": "r"}], "edges": [["a", "b"], ["b", "a"]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := g.WriteJSON(&once); err != nil {
			t.Fatalf("accepted graph does not encode: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := again.WriteJSON(&twice); err != nil {
			t.Fatalf("re-read graph does not encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encoding changed across a round trip:\n%s\n%s", once.Bytes(), twice.Bytes())
		}

		in := make([][]*Op, g.Len())
		out := make([][]*Op, g.Len())
		for _, op := range g.Ops() {
			in[op.ID], out[op.ID] = op.In(), op.Out()
		}
		g.Freeze()
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate once frozen: %v", err)
		}
		for _, op := range g.Ops() {
			if !slices.Equal(op.In(), in[op.ID]) || !slices.Equal(op.Out(), out[op.ID]) {
				t.Fatalf("freezing changed op %q's adjacency", op.Name)
			}
		}
		var frozen bytes.Buffer
		if err := g.WriteJSON(&frozen); err != nil {
			t.Fatalf("frozen graph does not encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), frozen.Bytes()) {
			t.Fatalf("encoding changed by freezing:\n%s\n%s", once.Bytes(), frozen.Bytes())
		}
	})
}
