package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config parameterizes NewNode. Self and Members are required; every other
// zero field selects the documented default.
type Config struct {
	// Self is this node's member ID. It must appear in Members.
	Self string
	// Members is the static seed membership (including self). Gossip can
	// only add to it: statically seeded members are never forgotten, only
	// marked down.
	Members []Member
	// ProbeInterval is the baseline health-probe period per peer
	// (<= 0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (<= 0 = 2s).
	ProbeTimeout time.Duration
	// Seed drives the probe-jitter RNG. Jitter only spreads probe times —
	// it never influences routing, which stays a pure function of the
	// membership view.
	Seed int64
}

const (
	// suspectAfter and downAfter are the consecutive-failure thresholds of
	// the state machine. A peer at suspectAfter failures turns suspect
	// (still routed to); at downAfter it leaves the ring.
	suspectAfter = 1
	downAfter    = 3
	// maxBackoff caps the exponential probe backoff for downed peers.
	maxBackoff = 15 * time.Second
	// probePath is the peer endpoint probes GET. Its response doubles as
	// the gossip payload; any 200 counts as alive.
	probePath = "/v1/fleet"
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	return c
}

// peerState is one remote member's health record.
type peerState struct {
	m         Member
	status    Status
	failures  int  // consecutive probe/forward failures
	learned   bool // discovered via gossip rather than the static seed
	probes    uint64
	probeErrs uint64
	nextProbe time.Time

	// Forwarding counters, surfaced per peer in /metrics.
	forwarded   uint64
	forwardErrs uint64
	hedges      uint64
	drainedTo   uint64
}

// Node is one fleet member's live view: the health-tracked peer set, the
// consistent-hash ring over its routable members, and the forwarding/drain
// counters the service reports. Create with NewNode; safe for concurrent
// use.
type Node struct {
	cfg    Config
	self   Member
	client *http.Client

	mu         sync.Mutex
	peers      map[string]*peerState
	ring       *Ring // routable members only (self + peers not Down)
	generation uint64
	rng        *rand.Rand

	forwardedIn uint64
	warmed      uint64
	drained     uint64
}

// NewNode validates cfg and returns a Node whose initial ring holds every
// seed member as alive. Start launches the probe loop; without it the state
// machine is still driven by forward results and explicit ProbeAll calls.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("fleet: config needs a Self member ID")
	}
	var self Member
	ids := make(map[string]bool, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("fleet: member %+v needs both an ID and a URL", m)
		}
		if ids[m.ID] {
			return nil, fmt.Errorf("fleet: duplicate member ID %q", m.ID)
		}
		ids[m.ID] = true
		if m.ID == cfg.Self {
			self = m
		}
	}
	if self.ID == "" {
		return nil, fmt.Errorf("fleet: self ID %q is not in the member list", cfg.Self)
	}
	if len(cfg.Members) < 2 {
		return nil, errors.New("fleet: need at least two members (a one-node fleet is plain daemon mode)")
	}
	n := &Node{
		cfg:    cfg,
		self:   self,
		client: &http.Client{Timeout: cfg.ProbeTimeout},
		peers:  make(map[string]*peerState),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, m := range cfg.Members {
		if m.ID != self.ID {
			n.peers[m.ID] = &peerState{m: m}
		}
	}
	n.rebuildRingLocked()
	return n, nil
}

// Self returns this node's member record.
func (n *Node) Self() Member { return n.self }

// Ring returns the current routing ring (self plus every peer not Down).
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Generation counts ring rebuilds that changed the routable member set.
func (n *Node) Generation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.generation
}

// Targets returns up to max members for key — the owner first, then its
// hash successors — from the live ring.
func (n *Node) Targets(key string, max int) []Member {
	return n.Ring().Successors(key, max)
}

// DrainTargets routes key on the ring without self: the owner a draining
// node streams its entries to.
func (n *Node) DrainTargets(key string, max int) []Member {
	return n.Ring().Without(n.self.ID).Successors(key, max)
}

// rebuildRingLocked recomputes the ring from the routable members. Caller
// holds n.mu. The generation bumps only when the routable set changed, so
// it fingerprints membership history, not probe traffic.
func (n *Node) rebuildRingLocked() {
	members := make([]Member, 0, len(n.peers)+1)
	members = append(members, n.self)
	for _, p := range n.peers {
		if p.status != Down {
			members = append(members, p.m)
		}
	}
	if n.ring != nil && sameMembers(n.ring.Members(), members) {
		return
	}
	n.ring = NewRing(members, DefaultVNodes)
	n.generation++
}

func sameMembers(sorted, unsorted []Member) bool {
	if len(sorted) != len(unsorted) {
		return false
	}
	ids := make(map[string]bool, len(unsorted))
	for _, m := range unsorted {
		ids[m.ID] = true
	}
	for _, m := range sorted {
		if !ids[m.ID] {
			return false
		}
	}
	return true
}

// Start launches the background probe loop until ctx is cancelled.
func (n *Node) Start(ctx context.Context) {
	go func() {
		// Tick at a quarter interval so per-peer backoff schedules are
		// honored with reasonable resolution.
		tick := n.cfg.ProbeInterval / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				n.ProbeAll(ctx, false)
			}
		}
	}()
}

// ProbeAll probes every peer whose schedule is due (force probes all). It
// is the loop body of Start and a deterministic hook for tests.
func (n *Node) ProbeAll(ctx context.Context, force bool) {
	now := time.Now()
	n.mu.Lock()
	due := make([]Member, 0, len(n.peers))
	for _, p := range n.peers {
		if force || !p.nextProbe.After(now) {
			due = append(due, p.m)
		}
	}
	n.mu.Unlock()
	// Probe in ID order so a forced sweep touches peers deterministically.
	sort.Slice(due, func(i, j int) bool { return due[i].ID < due[j].ID })
	for _, m := range due {
		n.probe(ctx, m)
	}
}

// probe performs one health probe of m and feeds the result to the state
// machine; a parseable response body also contributes gossip.
func (n *Node) probe(ctx context.Context, m Member) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ProbeTimeout)
	defer cancel()
	view, err := n.fetchView(ctx, m)
	n.mu.Lock()
	p, ok := n.peers[m.ID]
	if !ok {
		n.mu.Unlock()
		return
	}
	p.probes++
	if err != nil {
		p.probeErrs++
		n.failureLocked(p)
		n.mu.Unlock()
		return
	}
	n.successLocked(p)
	n.mu.Unlock()
	if view != nil {
		n.Merge(view.Members)
	}
}

// fetchView GETs the peer's probe endpoint. Any 200 counts as alive; the
// parsed view (when the body is one) feeds the gossip merge.
func (n *Node) fetchView(ctx context.Context, m Member) (*View, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+probePath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("probe %s: status %d", m.URL, resp.StatusCode)
	}
	var view View
	if json.Unmarshal(body, &view) != nil || view.Node == "" {
		return nil, nil // alive, but not a gossip payload
	}
	return &view, nil
}

// Merge folds gossiped members into the peer set: members this node has
// never heard of join as alive (their first failed probe or forward will
// demote them). Merging never removes anyone — statically seeded members
// are only ever marked down, and a learned member lives by the same rules.
func (n *Node) Merge(members []PeerView) {
	n.mu.Lock()
	defer n.mu.Unlock()
	changed := false
	for _, pv := range members {
		if pv.ID == "" || pv.URL == "" || pv.ID == n.self.ID {
			continue
		}
		if _, ok := n.peers[pv.ID]; ok {
			continue
		}
		n.peers[pv.ID] = &peerState{m: pv.Member, learned: true}
		changed = true
	}
	if changed {
		n.rebuildRingLocked()
	}
}

// failureLocked advances the suspect→down state machine one failure.
// Caller holds n.mu.
func (n *Node) failureLocked(p *peerState) {
	p.failures++
	prev := p.status
	switch {
	case p.failures >= downAfter:
		p.status = Down
	case p.failures >= suspectAfter:
		p.status = Suspect
	}
	p.nextProbe = time.Now().Add(n.backoffLocked(p))
	if (prev == Down) != (p.status == Down) {
		n.rebuildRingLocked()
	}
}

// successLocked resets a peer to alive. Caller holds n.mu.
func (n *Node) successLocked(p *peerState) {
	prev := p.status
	p.status = Alive
	p.failures = 0
	p.nextProbe = time.Now().Add(n.jitterLocked(n.cfg.ProbeInterval))
	if prev == Down {
		n.rebuildRingLocked()
	}
}

// backoffLocked computes the next probe delay for a failing peer: the base
// interval while alive/suspect, then exponential in the failures beyond the
// down threshold, capped at maxBackoff — all with seeded jitter so a fleet
// restarted together does not probe in lockstep. Caller holds n.mu.
func (n *Node) backoffLocked(p *peerState) time.Duration {
	d := n.cfg.ProbeInterval
	if p.status == Down {
		for i := p.failures - downAfter; i > 0 && d < maxBackoff; i-- {
			d *= 2
		}
		if d > maxBackoff {
			d = maxBackoff
		}
	}
	return n.jitterLocked(d)
}

// jitterLocked spreads d by ±20% using the seeded RNG. Caller holds n.mu.
func (n *Node) jitterLocked(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*n.rng.Float64()))
}

// ReportForwardFailure feeds a failed forward to m into the health state
// machine — forwards outnumber probes under load, so a dead peer is
// detected in milliseconds instead of a probe interval.
func (n *Node) ReportForwardFailure(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[id]; ok {
		p.forwardErrs++
		n.failureLocked(p)
	}
}

// ReportForwardSuccess records a served forward to id; a response is also
// proof of life.
func (n *Node) ReportForwardSuccess(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[id]; ok {
		p.forwarded++
		n.successLocked(p)
	}
}

// ReportHedge records that a forward for a key owned by id timed out and
// hedged to the next replica.
func (n *Node) ReportHedge(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[id]; ok {
		p.hedges++
	}
}

// ReportForwardedIn counts a request another node forwarded here.
func (n *Node) ReportForwardedIn() {
	n.mu.Lock()
	n.forwardedIn++
	n.mu.Unlock()
}

// ReportDrained counts entries this node streamed to id while draining.
func (n *Node) ReportDrained(id string, entries int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drained += uint64(entries)
	if p, ok := n.peers[id]; ok {
		p.drainedTo += uint64(entries)
	}
}

// ReportWarmed counts entries a draining peer streamed into this node.
func (n *Node) ReportWarmed(entries int) {
	n.mu.Lock()
	n.warmed += uint64(entries)
	n.mu.Unlock()
}

// PeerView is one member's health as seen by the reporting node — the
// gossip payload and the /metrics ring view.
type PeerView struct {
	Member
	Status Status `json:"status"`
	// Self marks the reporting node's own entry.
	Self bool `json:"self,omitempty"`
	// Learned marks members discovered via gossip rather than -peers.
	Learned bool `json:"learned,omitempty"`
	// ConsecutiveFailures is the state machine's current failure streak.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Probes / ProbeFailures are cumulative probe counts.
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// Forwarded / ForwardFailures / Hedges / DrainedTo are this node's
	// cumulative forwarding traffic toward the member.
	Forwarded       uint64 `json:"forwarded"`
	ForwardFailures uint64 `json:"forward_failures"`
	Hedges          uint64 `json:"hedges"`
	DrainedTo       uint64 `json:"drained_to"`
}

// View is a node's complete fleet view: what GET /v1/fleet returns, what
// probes gossip, and what /metrics embeds.
type View struct {
	// Node is the reporting member's ID.
	Node string `json:"node"`
	// Generation counts routable-membership changes on this node.
	Generation uint64 `json:"generation"`
	// VNodes is the ring's virtual-node count per member.
	VNodes int `json:"vnodes"`
	// Members is every known member (self included), sorted by ID.
	Members []PeerView `json:"members"`
	// Live is the count of members currently on the ring.
	Live int `json:"live"`
	// ForwardedIn / Warmed / Drained are this node's cumulative fleet
	// traffic totals (drained = entries streamed out while draining).
	ForwardedIn uint64 `json:"forwarded_in"`
	Warmed      uint64 `json:"warmed"`
	Drained     uint64 `json:"drained"`
}

// View snapshots this node's fleet state.
func (n *Node) View() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := View{
		Node:        n.self.ID,
		Generation:  n.generation,
		VNodes:      DefaultVNodes,
		Live:        n.ring.Len(),
		ForwardedIn: n.forwardedIn,
		Warmed:      n.warmed,
		Drained:     n.drained,
	}
	v.Members = append(v.Members, PeerView{Member: n.self, Status: Alive, Self: true})
	for _, p := range n.peers {
		v.Members = append(v.Members, PeerView{
			Member:              p.m,
			Status:              p.status,
			Learned:             p.learned,
			ConsecutiveFailures: p.failures,
			Probes:              p.probes,
			ProbeFailures:       p.probeErrs,
			Forwarded:           p.forwarded,
			ForwardFailures:     p.forwardErrs,
			Hedges:              p.hedges,
			DrainedTo:           p.drainedTo,
		})
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	return v
}
