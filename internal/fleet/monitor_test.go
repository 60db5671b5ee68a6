package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fleetStub is a minimal peer: serves /v1/fleet with a configurable view
// and can be flipped dead (responds 503) without closing the listener.
type fleetStub struct {
	srv  *httptest.Server
	dead atomic.Bool
	view atomic.Pointer[View]
}

func newFleetStub(t *testing.T, id string) *fleetStub {
	t.Helper()
	s := &fleetStub{}
	s.view.Store(&View{Node: id})
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.dead.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path != "/v1/fleet" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(s.view.Load())
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func testNode(t *testing.T, peers ...*fleetStub) *Node {
	t.Helper()
	members := []Member{{ID: "self", URL: "http://self.invalid"}}
	for i, p := range peers {
		members = append(members, Member{ID: string(rune('a' + i)), URL: p.srv.URL})
	}
	n, err := NewNode(Config{
		Self:          "self",
		Members:       members,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

func TestNodeConfigValidation(t *testing.T) {
	m := []Member{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no self", Config{Members: m}},
		{"self not a member", Config{Self: "x", Members: m}},
		{"duplicate IDs", Config{Self: "a", Members: append(m, Member{ID: "a", URL: "http://dup"})}},
		{"missing URL", Config{Self: "a", Members: []Member{{ID: "a"}, {ID: "b", URL: "http://b"}}}},
		{"single member", Config{Self: "a", Members: m[:1]}},
	}
	for _, tc := range cases {
		if _, err := NewNode(tc.cfg); err == nil {
			t.Errorf("%s: NewNode accepted invalid config", tc.name)
		}
	}
}

func TestNodeStateMachine(t *testing.T) {
	peer := newFleetStub(t, "a")
	n := testNode(t, peer)
	ctx := context.Background()

	if n.Ring().Len() != 2 {
		t.Fatalf("initial ring has %d members, want 2", n.Ring().Len())
	}
	gen0 := n.Generation()

	// Healthy probes keep the peer alive.
	n.ProbeAll(ctx, true)
	if got := peerStatus(t, n, "a"); got != Alive {
		t.Fatalf("after healthy probe: status %v, want alive", got)
	}

	// Failures walk alive → suspect → down; suspect stays on the ring.
	peer.dead.Store(true)
	n.ProbeAll(ctx, true)
	if got := peerStatus(t, n, "a"); got != Suspect {
		t.Fatalf("after 1 failure: status %v, want suspect", got)
	}
	if n.Ring().Len() != 2 {
		t.Fatal("suspect peer fell off the ring")
	}
	n.ProbeAll(ctx, true)
	n.ProbeAll(ctx, true)
	if got := peerStatus(t, n, "a"); got != Down {
		t.Fatalf("after 3 failures: status %v, want down", got)
	}
	if n.Ring().Len() != 1 {
		t.Fatalf("down peer still on ring: %d members", n.Ring().Len())
	}
	if n.Generation() == gen0 {
		t.Fatal("generation did not advance on membership change")
	}

	// Recovery: first successful probe rejoins the ring.
	peer.dead.Store(false)
	n.ProbeAll(ctx, true)
	if got := peerStatus(t, n, "a"); got != Alive {
		t.Fatalf("after recovery probe: status %v, want alive", got)
	}
	if n.Ring().Len() != 2 {
		t.Fatal("recovered peer not back on ring")
	}
}

func TestNodeForwardResultsDriveHealth(t *testing.T) {
	peer := newFleetStub(t, "a")
	n := testNode(t, peer)

	for i := 0; i < 3; i++ {
		n.ReportForwardFailure("a")
	}
	if got := peerStatus(t, n, "a"); got != Down {
		t.Fatalf("after 3 forward failures: status %v, want down", got)
	}
	n.ReportForwardSuccess("a")
	if got := peerStatus(t, n, "a"); got != Alive {
		t.Fatalf("after forward success: status %v, want alive", got)
	}
	v := n.View()
	pv := findMember(t, v, "a")
	if pv.Forwarded != 1 || pv.ForwardFailures != 3 {
		t.Fatalf("counters: forwarded=%d failures=%d, want 1 and 3", pv.Forwarded, pv.ForwardFailures)
	}
}

func TestNodeGossipMerge(t *testing.T) {
	peer := newFleetStub(t, "a")
	n := testNode(t, peer)

	// The peer knows a member this node was not seeded with.
	peer.view.Store(&View{Node: "a", Members: []PeerView{
		{Member: Member{ID: "z", URL: "http://z.invalid"}},
	}})
	n.ProbeAll(context.Background(), true)

	v := n.View()
	pv := findMember(t, v, "z")
	if !pv.Learned {
		t.Fatal("gossiped member not marked learned")
	}
	if n.Ring().Len() != 3 {
		t.Fatalf("ring has %d members after gossip, want 3", n.Ring().Len())
	}
	// Gossiping self or known members must not duplicate anything.
	peer.view.Store(&View{Node: "a", Members: []PeerView{
		{Member: Member{ID: "self", URL: "http://elsewhere"}},
		{Member: Member{ID: "z", URL: "http://z.invalid"}},
	}})
	n.ProbeAll(context.Background(), true)
	if got := len(n.View().Members); got != 3 {
		t.Fatalf("view has %d members after re-gossip, want 3", got)
	}
}

func TestNodeViewSortedAndSelfMarked(t *testing.T) {
	p1 := newFleetStub(t, "a")
	p2 := newFleetStub(t, "b")
	n := testNode(t, p1, p2)
	v := n.View()
	if len(v.Members) != 3 {
		t.Fatalf("view has %d members, want 3", len(v.Members))
	}
	for i := 1; i < len(v.Members); i++ {
		if v.Members[i-1].ID >= v.Members[i].ID {
			t.Fatalf("view members not sorted: %v", v.Members)
		}
	}
	self := findMember(t, v, "self")
	if !self.Self {
		t.Fatal("self entry not marked")
	}
	if v.Live != 3 || v.Node != "self" {
		t.Fatalf("view header: live=%d node=%q", v.Live, v.Node)
	}
}

func TestNodeDrainTargetsExcludeSelf(t *testing.T) {
	p1 := newFleetStub(t, "a")
	p2 := newFleetStub(t, "b")
	n := testNode(t, p1, p2)
	for i := 0; i < 100; i++ {
		for _, m := range n.DrainTargets(string(rune(i))+"key", 2) {
			if m.ID == "self" {
				t.Fatal("drain target chain contains self")
			}
		}
	}
}

func TestNodeStartLoopProbes(t *testing.T) {
	peer := newFleetStub(t, "a")
	n := testNode(t, peer)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.Start(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if findMember(t, n.View(), "a").Probes > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("probe loop never probed the peer")
}

func peerStatus(t *testing.T, n *Node, id string) Status {
	t.Helper()
	return findMember(t, n.View(), id).Status
}

func findMember(t *testing.T, v View, id string) PeerView {
	t.Helper()
	for _, m := range v.Members {
		if m.ID == id {
			return m
		}
	}
	t.Fatalf("member %q not in view %+v", id, v.Members)
	return PeerView{}
}
