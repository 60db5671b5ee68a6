package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// echoPeer serves any path by echoing its ID and the request body, and
// records whether the forwarded header arrived.
type echoPeer struct {
	id        string
	srv       *httptest.Server
	dead      atomic.Bool
	delay     atomic.Int64 // nanoseconds
	hits      atomic.Int64
	forwarded atomic.Bool
}

func newEchoPeer(t *testing.T, id string) *echoPeer {
	t.Helper()
	p := &echoPeer{id: id}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := p.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if p.dead.Load() {
			// Simulate a dead process: hijack and sever the connection so
			// the client sees a transport error, not an HTTP status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		p.hits.Add(1)
		if r.Header.Get(ForwardedHeader) != "" {
			p.forwarded.Store(true)
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(p.id + "|" + string(body)))
	}))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *echoPeer) member() Member { return Member{ID: p.id, URL: p.srv.URL} }

func forwarderForTest(t *testing.T, hedge time.Duration, peers ...*echoPeer) (*Forwarder, *Node) {
	t.Helper()
	members := []Member{{ID: "self", URL: "http://self.invalid"}}
	for _, p := range peers {
		members = append(members, p.member())
	}
	n, err := NewNode(Config{Self: "self", Members: members, Seed: 7})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return NewForwarder(n, &http.Client{Timeout: 2 * time.Second}, hedge), n
}

func TestForwardHappyPath(t *testing.T) {
	owner := newEchoPeer(t, "a")
	f, _ := forwarderForTest(t, time.Second, owner)

	res, err := f.Forward(context.Background(), http.MethodPost, "/v1/schedule", []byte(`{"k":1}`), "application/json", []Member{owner.member()})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if res.Status != http.StatusOK || res.Via != "a" || res.Hedged {
		t.Fatalf("result: %+v", res)
	}
	if want := `a|{"k":1}`; string(res.Body) != want {
		t.Fatalf("body %q, want %q", res.Body, want)
	}
	if !owner.forwarded.Load() {
		t.Fatal("forwarded header not sent")
	}
}

func TestForwardHedgeWinsWhenOwnerSlow(t *testing.T) {
	owner := newEchoPeer(t, "a")
	replica := newEchoPeer(t, "b")
	owner.delay.Store(int64(500 * time.Millisecond))
	f, n := forwarderForTest(t, 20*time.Millisecond, owner, replica)

	res, err := f.Forward(context.Background(), http.MethodPost, "/x", []byte("k"), "", []Member{owner.member(), replica.member()})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if res.Via != "b" || !res.Hedged {
		t.Fatalf("want hedged win via b, got %+v", res)
	}
	if hedges := findMember(t, n.View(), "a").Hedges; hedges != 1 {
		t.Fatalf("owner hedge counter = %d, want 1", hedges)
	}
}

func TestForwardFailsOverWhenOwnerDead(t *testing.T) {
	owner := newEchoPeer(t, "a")
	replica := newEchoPeer(t, "b")
	owner.dead.Store(true)
	f, n := forwarderForTest(t, time.Second, owner, replica)

	res, err := f.Forward(context.Background(), http.MethodPost, "/x", []byte("k"), "", []Member{owner.member(), replica.member()})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if res.Via != "b" {
		t.Fatalf("want failover to b, got %+v", res)
	}
	if fails := findMember(t, n.View(), "a").ForwardFailures; fails != 1 {
		t.Fatalf("owner forward-failure counter = %d, want 1", fails)
	}
}

func TestForwardAllTargetsDead(t *testing.T) {
	owner := newEchoPeer(t, "a")
	replica := newEchoPeer(t, "b")
	owner.dead.Store(true)
	replica.dead.Store(true)
	f, n := forwarderForTest(t, 10*time.Millisecond, owner, replica)

	_, err := f.Forward(context.Background(), http.MethodPost, "/x", []byte("k"), "", []Member{owner.member(), replica.member()})
	if err == nil {
		t.Fatal("Forward succeeded with every target dead")
	}
	// Repeated all-dead forwards must push both peers down.
	for i := 0; i < 3; i++ {
		f.Forward(context.Background(), http.MethodPost, "/x", []byte("k"), "", []Member{owner.member(), replica.member()})
	}
	if got := peerStatus(t, n, "a"); got != Down {
		t.Fatalf("owner status %v after repeated forward failures, want down", got)
	}
}

func TestForwardRelaysErrorStatusVerbatim(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"bad_request"}}`))
	}))
	t.Cleanup(srv.Close)
	owner := Member{ID: "a", URL: srv.URL}
	n, err := NewNode(Config{Self: "self", Members: []Member{{ID: "self", URL: "http://self.invalid"}, owner}, Seed: 1})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	f := NewForwarder(n, nil, time.Second)

	res, err := f.Forward(context.Background(), http.MethodPost, "/x", nil, "", []Member{owner})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	// An HTTP error is the owner's deterministic answer — relay, not retry.
	if res.Status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", res.Status)
	}
	if string(res.Body) != `{"error":{"code":"bad_request"}}` {
		t.Fatalf("body %q not relayed verbatim", res.Body)
	}
}

// TestForwardTooLargeIsNotAFailure requires an answer one byte over the
// relay cap to come back as ErrTooLarge rather than a cut body, without
// trying the next target or counting against the owner's health, and an
// answer exactly at the cap to relay whole.
func TestForwardTooLargeIsNotAFailure(t *testing.T) {
	owner := newEchoPeer(t, "a")
	replica := newEchoPeer(t, "b")
	f, n := forwarderForTest(t, time.Second, owner, replica)
	body := []byte("0123456789")
	f.maxBody = int64(len("a|") + len(body))

	res, err := f.Forward(context.Background(), http.MethodPost, "/x", body, "", []Member{owner.member(), replica.member()})
	if err != nil || string(res.Body) != "a|"+string(body) {
		t.Fatalf("answer at the cap: %+v, %v", res, err)
	}
	for i := 0; i < 3; i++ {
		_, err := f.Forward(context.Background(), http.MethodPost, "/x", append(body, 'x'), "", []Member{owner.member(), replica.member()})
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("answer over the cap: err = %v, want ErrTooLarge", err)
		}
	}
	if hits := replica.hits.Load(); hits != 0 {
		t.Fatalf("an answer over the cap advanced the chain: replica served %d", hits)
	}
	if got := findMember(t, n.View(), "a").ForwardFailures; got != 0 {
		t.Fatalf("owner forward-failure counter = %d, want 0", got)
	}
	if got := peerStatus(t, n, "a"); got != Alive {
		t.Fatalf("owner status %v after answers over the cap, want alive", got)
	}
}

func TestForwardNoTargets(t *testing.T) {
	owner := newEchoPeer(t, "a")
	f, _ := forwarderForTest(t, time.Second, owner)
	if _, err := f.Forward(context.Background(), http.MethodGet, "/x", nil, "", nil); err != ErrNoTargets {
		t.Fatalf("err = %v, want ErrNoTargets", err)
	}
}

func TestForwardContextCancelled(t *testing.T) {
	owner := newEchoPeer(t, "a")
	owner.delay.Store(int64(time.Second))
	f, _ := forwarderForTest(t, 10*time.Second, owner)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := f.Forward(ctx, http.MethodGet, "/x", nil, "", []Member{owner.member()}); err == nil {
		t.Fatal("Forward survived a cancelled context")
	}
}
