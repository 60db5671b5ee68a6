package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/fleet"
)

// handlerSwap lets a test start listeners before the services exist: fleet
// members need each other's URLs at construction time.
type handlerSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *handlerSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// fleetTestNode is one member of an in-process test fleet.
type fleetTestNode struct {
	id   string
	url  string
	svc  *Service
	node *fleet.Node
	srv  *httptest.Server
}

// kill simulates an abrupt process death (the SIGKILL path): the listener
// closes and in-flight connections are severed, with no drain.
func (n *fleetTestNode) kill() {
	n.srv.CloseClientConnections()
	n.srv.Close()
}

// startTestFleet brings up an n-node fleet of real Services over loopback
// HTTP. Probe loops are NOT started: tests drive health deterministically
// via ProbeAll / ReportForwardFailure, except where they opt in.
func startTestFleet(t testing.TB, n int) []*fleetTestNode {
	t.Helper()
	return startTestFleetTimeout(t, n, 5*time.Second)
}

// startTestFleetTimeout is startTestFleet with the given forward timeout.
func startTestFleetTimeout(t testing.TB, n int, forwardTimeout time.Duration) []*fleetTestNode {
	t.Helper()
	nodes := make([]*fleetTestNode, n)
	swaps := make([]*handlerSwap, n)
	members := make([]fleet.Member, n)
	for i := 0; i < n; i++ {
		swaps[i] = &handlerSwap{}
		srv := httptest.NewServer(swaps[i])
		nodes[i] = &fleetTestNode{id: fmt.Sprintf("n%d", i), url: srv.URL, srv: srv}
		members[i] = fleet.Member{ID: nodes[i].id, URL: srv.URL}
	}
	for i := 0; i < n; i++ {
		node, err := fleet.NewNode(fleet.Config{
			Self:          nodes[i].id,
			Members:       members,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  2 * time.Second,
			DownAfter:     3,
			Seed:          int64(i),
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", nodes[i].id, err)
		}
		svc := New(Options{
			Fleet:             node,
			FleetHedgeTimeout: 200 * time.Millisecond,
			FleetClient:       &http.Client{Timeout: forwardTimeout},
		})
		nodes[i].node = node
		nodes[i].svc = svc
		swaps[i].set(svc.Handler())
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.srv.Close()
		}
	})
	return nodes
}

// directSchedulePayload computes the reference schedule payload for a spec
// through the library, on the code path the cache build uses.
func directSchedulePayload(t testing.TB, spec WorkloadSpec) []byte {
	t.Helper()
	res, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	c, err := cluster.Build(res.cfg)
	if err != nil {
		t.Fatalf("direct build: %v", err)
	}
	e, err := computeScheduleResult(&clusterEntry{
		c:              c,
		graphDigest:    core.GraphDigest(c.Graph),
		platformDigest: res.key.platformDigest,
	}, res)
	if err != nil {
		t.Fatalf("direct schedule: %v", err)
	}
	return e.payload
}

// postScheduleTo fires spec at a node URL, returning status, the compacted
// result payload (on 200), and the raw body.
func postScheduleTo(t testing.TB, url string, spec WorkloadSpec, header http.Header) (int, []byte, []byte) {
	t.Helper()
	body, err := json.Marshal(ScheduleRequest{Workload: spec})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, raw.Bytes()
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(raw.Bytes(), &sr); err != nil {
		t.Fatalf("unmarshal response: %v (%s)", err, raw.Bytes())
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, sr.Result); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return resp.StatusCode, compact.Bytes(), raw.Bytes()
}

// specOwnedBy searches workload shapes until one's routing key is owned by
// nodes[want] according to every node's (identical) initial ring, with the
// full replica chain equal to wantChain when given.
func specOwnedBy(t testing.TB, nodes []*fleetTestNode, want int, wantChain []string) WorkloadSpec {
	t.Helper()
	for workers := 1; workers <= 24; workers++ {
		for _, iters := range []int{0, 2, 3, 4} {
			spec := WorkloadSpec{Model: "AlexNet v2", Workers: workers, PS: 1, Iterations: iters}
			res, err := spec.resolve()
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			targets := nodes[0].node.Targets(res.fleetKey(), 2)
			if len(targets) < 2 || targets[0].ID != nodes[want].id {
				continue
			}
			if wantChain != nil {
				if len(wantChain) != 2 || targets[1].ID != wantChain[1] {
					continue
				}
			}
			return spec
		}
	}
	t.Fatalf("no workload shape found with owner %s (chain %v)", nodes[want].id, wantChain)
	return WorkloadSpec{}
}

func TestFleetRoutingForwardsToOneHome(t *testing.T) {
	nodes := startTestFleet(t, 3)
	spec := specOwnedBy(t, nodes, 1, nil)
	want := directSchedulePayload(t, spec)

	// The same workload through every node returns the same bytes.
	for _, nd := range nodes {
		status, got, raw := postScheduleTo(t, nd.url, spec, nil)
		if status != http.StatusOK {
			t.Fatalf("via %s: status %d: %s", nd.id, status, raw)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("via %s: payload diverged from direct computation", nd.id)
		}
	}
	// Exactly the owner built; the other nodes forwarded instead.
	for i, nd := range nodes {
		_, schedBuilds := nd.svc.BuildCounts()
		wantBuilds := uint64(0)
		if i == 1 {
			wantBuilds = 1
		}
		if schedBuilds != wantBuilds {
			t.Errorf("%s: %d schedule builds, want %d (each workload has one home)", nd.id, schedBuilds, wantBuilds)
		}
	}
	// The owner saw two forwarded-in requests; a non-owner recorded its
	// forward to the owner.
	if in := nodes[1].node.View().ForwardedIn; in != 2 {
		t.Errorf("owner forwarded_in = %d, want 2", in)
	}
	v := nodes[0].node.View()
	for _, m := range v.Members {
		if m.ID == nodes[1].id && m.Forwarded != 1 {
			t.Errorf("n0 forwarded-to-owner counter = %d, want 1", m.Forwarded)
		}
	}
}

func TestFleetForwardedRequestServedLocally(t *testing.T) {
	nodes := startTestFleet(t, 3)
	spec := specOwnedBy(t, nodes, 1, nil)
	want := directSchedulePayload(t, spec)

	// A request already carrying the forwarded header must be served by the
	// receiver even though it does not own the key — loop freedom, and the
	// membership-disagreement safety net.
	hdr := http.Header{}
	hdr.Set(fleet.ForwardedHeader, "elsewhere")
	status, got, raw := postScheduleTo(t, nodes[0].url, spec, hdr)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("forwarded request's local answer diverged from direct computation")
	}
	if _, builds := nodes[0].svc.BuildCounts(); builds != 1 {
		t.Fatalf("non-owner served a forwarded request with %d builds, want 1 (local serve)", builds)
	}
	if _, builds := nodes[1].svc.BuildCounts(); builds != 0 {
		t.Fatalf("owner built %d times for a request it never saw", builds)
	}
}

func TestFleetOwnerDeadFailoverStaysCorrect(t *testing.T) {
	// Owner down mid-forward: the forwarding node's chain walks to the next
	// replica (or itself) and the answer stays byte-correct.
	nodes := startTestFleet(t, 3)
	spec := specOwnedBy(t, nodes, 2, nil)
	want := directSchedulePayload(t, spec)

	nodes[2].kill()
	// No probes have run: n0 still believes n2 is alive and will attempt
	// the forward, eat the transport error, and fail over.
	status, got, raw := postScheduleTo(t, nodes[0].url, spec, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d after owner death: %s", status, raw)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover answer diverged from direct computation")
	}
	// The dead owner's failure fed the health state machine.
	v := nodes[0].node.View()
	for _, m := range v.Members {
		if m.ID == nodes[2].id && m.ForwardFailures == 0 {
			t.Error("forward failure to dead owner not recorded")
		}
	}
}

func TestFleetOwnerAndReplicaDown503(t *testing.T) {
	nodes := startTestFleet(t, 3)
	// A key whose replica chain is exactly [n1, n2] as seen from n0.
	spec := specOwnedBy(t, nodes, 1, []string{nodes[1].id, nodes[2].id})

	nodes[1].kill()
	nodes[2].kill()
	status, _, raw := postScheduleTo(t, nodes[0].url, spec, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d with whole chain dead, want 503 (%s)", status, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("503 body is not the structured envelope: %s", raw)
	}
	if er.Error.Code != CodeFleetUnavailable {
		t.Fatalf("error code %q, want %q", er.Error.Code, CodeFleetUnavailable)
	}

	// Once health marks the chain down (forward failures already count),
	// the ring shrinks to self and the same request serves locally.
	for i := 0; i < 3; i++ {
		postScheduleTo(t, nodes[0].url, spec, nil)
	}
	status, got, raw := postScheduleTo(t, nodes[0].url, spec, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d after down-marking, want 200 (%s)", status, raw)
	}
	if want := directSchedulePayload(t, spec); !bytes.Equal(got, want) {
		t.Fatal("post-down local answer diverged from direct computation")
	}
}

func TestFleetMembershipDisagreementStaysByteCorrect(t *testing.T) {
	// Partition: n0 believes the owner n1 is down (its ring routes the key
	// to someone else) while n2 still believes n1 is alive. Both views must
	// return byte-identical data — the stale owner serves forwarded
	// requests locally, and any node can compute any answer.
	nodes := startTestFleet(t, 3)
	spec := specOwnedBy(t, nodes, 1, nil)
	want := directSchedulePayload(t, spec)

	for i := 0; i < 3; i++ {
		nodes[0].node.ReportForwardFailure(nodes[1].id)
	}
	if got := len(nodes[0].node.Ring().Members()); got != 2 {
		t.Fatalf("n0 ring has %d members after down-marking, want 2", got)
	}

	for _, nd := range []*fleetTestNode{nodes[0], nodes[2]} {
		status, got, raw := postScheduleTo(t, nd.url, spec, nil)
		if status != http.StatusOK {
			t.Fatalf("via %s: status %d: %s", nd.id, status, raw)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("via %s: disagreeing membership views produced different bytes", nd.id)
		}
	}
}

func TestFleetDrainStreamsEntriesAndRacesWrites(t *testing.T) {
	nodes := startTestFleet(t, 3)

	// Warm a handful of workloads whose home is n0.
	var specs []WorkloadSpec
	for workers := 1; workers <= 24 && len(specs) < 3; workers++ {
		spec := WorkloadSpec{Model: "AlexNet v2", Workers: workers, PS: 1}
		res, err := spec.resolve()
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		if o, _ := nodes[0].node.Ring().Owner(res.fleetKey()); o.ID == nodes[0].id {
			specs = append(specs, spec)
		}
	}
	if len(specs) < 2 {
		t.Fatalf("only %d workloads homed on n0", len(specs))
	}
	for _, spec := range specs {
		if status, _, raw := postScheduleTo(t, nodes[0].url, spec, nil); status != http.StatusOK {
			t.Fatalf("warm: status %d: %s", status, raw)
		}
	}
	resident := nodes[0].svc.schedules.Len()
	if resident != len(specs) {
		t.Fatalf("n0 holds %d entries, want %d", resident, len(specs))
	}

	// Drain n0 while new writes race in (a workload it still owns).
	raceSpec := specs[len(specs)-1]
	raceSpec.Seed = 99 // same home (seed is not in the routing key), new entry
	raceWant := directSchedulePayload(t, raceSpec)
	done := make(chan error, 1)
	go func() {
		status, got, raw := postScheduleTo(t, nodes[0].url, raceSpec, nil)
		if status != http.StatusOK {
			done <- fmt.Errorf("race write: status %d: %s", status, raw)
			return
		}
		if !bytes.Equal(got, raceWant) {
			done <- fmt.Errorf("race write diverged from direct computation")
			return
		}
		done <- nil
	}()

	report := nodes[0].svc.Drain(context.Background())
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !nodes[0].svc.Draining() {
		t.Fatal("node not marked draining after Drain")
	}
	if report.Entries < len(specs) {
		t.Fatalf("drain saw %d entries, want >= %d", report.Entries, len(specs))
	}
	if report.Streamed < len(specs) {
		t.Fatalf("drain streamed %d entries, want >= %d: %+v", report.Streamed, len(specs), report)
	}
	if len(report.Errors) > 0 {
		t.Fatalf("drain errors: %v", report.Errors)
	}

	// The receivers hold the entries now: each drained spec's post-drain
	// owner (ring without n0) serves it as a full cache hit.
	warmed := 0
	for _, nd := range nodes[1:] {
		warmed += int(nd.node.View().Warmed)
	}
	if warmed != report.Streamed {
		t.Fatalf("receivers warmed %d entries, drain streamed %d", warmed, report.Streamed)
	}
	nodes[0].kill()
	for _, spec := range specs {
		res, err := spec.resolve()
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		owners := nodes[1].node.Ring().Without(nodes[0].id).Successors(res.fleetKey(), 1)
		if len(owners) == 0 {
			t.Fatal("no post-drain owner")
		}
		var target *fleetTestNode
		for _, nd := range nodes[1:] {
			if nd.id == owners[0].ID {
				target = nd
			}
		}
		before, _ := target.svc.CacheStats()
		_ = before
		schedBefore := target.svc.schedules.Stats()
		status, got, raw := postScheduleTo(t, target.url, spec, nil)
		if status != http.StatusOK {
			t.Fatalf("post-drain read: status %d: %s", status, raw)
		}
		if want := directSchedulePayload(t, spec); !bytes.Equal(got, want) {
			t.Fatal("post-drain read diverged from direct computation")
		}
		schedAfter := target.svc.schedules.Stats()
		if schedAfter.Hits != schedBefore.Hits+1 {
			t.Fatalf("post-drain read was not a cache hit on the new owner (hits %d -> %d)",
				schedBefore.Hits, schedAfter.Hits)
		}
	}
}

// TestFleetForwardOverRelayCapServedLocally sends a batch whose answer
// (about 31 MB) is over the forwarder's 8 MiB relay cap through a
// non-owner. The client must get the owner's bytes whole rather than a cut
// body, and the owner must stay alive: a long answer is not a failure.
func TestFleetForwardOverRelayCapServedLocally(t *testing.T) {
	// The owner takes seconds to answer under the race detector; a slow
	// answer is not what this test is about.
	nodes := startTestFleetTimeout(t, 2, time.Minute)
	spec := specOwnedBy(t, nodes, 1, nil)
	spec.MeasureIterations = 1000
	req := BatchRequest{Workload: spec, Variants: make([]BatchVariant, DefaultMaxBatch)}

	resp, want := post(t, nodes[1].url+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner: status %d: %.200s", resp.StatusCode, want)
	}
	if len(want) <= 8<<20 {
		t.Fatalf("owner's answer is %d bytes; the test needs one over the 8 MiB relay cap", len(want))
	}
	resp, got := post(t, nodes[0].url+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner: status %d: %.200s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("non-owner answered %d bytes, the owner %d; want the owner's bytes", len(got), len(want))
	}

	_, raw := get(t, nodes[0].url+"/v1/fleet")
	var v fleet.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode /v1/fleet: %v", err)
	}
	for _, m := range v.Members {
		if m.ID == nodes[1].id && (m.Status != fleet.Alive || m.ForwardFailures != 0) {
			t.Fatalf("owner is %s with %d forward failures after an answer over the cap, want alive with 0",
				m.Status, m.ForwardFailures)
		}
	}
}
