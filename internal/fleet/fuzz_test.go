package fleet

import (
	"encoding/json"
	"testing"
)

// FuzzNodeMerge decodes arbitrary bytes as a gossiped View, the payload a
// peer's /v1/fleet returns, and merges its members into one node of a
// two-node fleet. Merge must never panic or make self a peer, every ring
// member must have an ID and a URL, and merging the same view again must
// leave the generation unchanged.
func FuzzNodeMerge(f *testing.F) {
	f.Add([]byte(`{"node": "b", "generation": 1, "vnodes": 64, "live": 2, "members": [
		{"id": "a", "url": "http://a.invalid", "status": "alive"},
		{"id": "b", "url": "http://b.invalid", "status": "alive", "self": true}]}`))
	f.Add([]byte(`{"node": "b", "members": [
		{"id": "z", "url": "http://z.invalid", "status": "down", "learned": true},
		{"id": "z", "url": "http://other.invalid"},
		{"id": "a", "url": "http://elsewhere.invalid"},
		{"id": "", "url": "http://anon.invalid"},
		{"id": "y", "url": ""}]}`))
	f.Add([]byte(`{"members": null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var v View
		if json.Unmarshal(data, &v) != nil {
			return
		}
		n, err := NewNode(Config{Self: "a", Members: []Member{
			{ID: "a", URL: "http://a.invalid"},
			{ID: "b", URL: "http://b.invalid"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		n.Merge(v.Members)
		gen := n.Generation()
		n.Merge(v.Members)
		if got := n.Generation(); got != gen {
			t.Fatalf("merging the same view twice moved the generation from %d to %d", gen, got)
		}
		for _, pv := range n.View().Members {
			if pv.ID == "a" && !pv.Self {
				t.Fatalf("self became a peer: %+v", pv)
			}
		}
		selfOnRing := 0
		for _, m := range n.Ring().Members() {
			if m.ID == "" || m.URL == "" {
				t.Fatalf("ring member without an ID or URL: %+v", m)
			}
			if m.ID == "a" {
				selfOnRing++
			}
		}
		if selfOnRing != 1 {
			t.Fatalf("self is on the ring %d times, want once", selfOnRing)
		}
	})
}
