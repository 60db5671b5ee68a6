package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"
)

// EventKind names a cluster-membership event.
type EventKind string

// The membership event kinds. Worker events change which worker replicas
// execute; PS events degrade and restore parameter-server shards (the
// simulated analogue of internal/psrt's sharded runtime losing and
// re-serving one server).
const (
	// WorkerJoin activates an initially-absent (or previously departed)
	// worker at the start of its iteration. Its cold-start parameter fetch
	// happens in-band through its recv ops.
	WorkerJoin EventKind = "worker_join"
	// WorkerLeave deactivates a worker at the start of its iteration — a
	// clean scale-down: no work is lost.
	WorkerLeave EventKind = "worker_leave"
	// WorkerFail kills a worker mid-iteration: the fleet's partial work up
	// to FailPoint is lost (in-flight transfers dropped), the iteration
	// re-runs without the worker, and the parameter set is re-fetched.
	WorkerFail EventKind = "worker_fail"
	// PSShardFail fails a parameter-server shard mid-iteration: the
	// partial work is lost, the shard's hosted state is re-served from a
	// checkpoint (a reload cost derived from the shard's hosted bytes),
	// and every op touching the shard's parameters runs DegradedFactor
	// slower until a matching PSRecover.
	PSShardFail EventKind = "ps_shard_fail"
	// PSRecover restores a degraded shard at the start of its iteration,
	// paying one resync reload of the shard's hosted bytes.
	PSRecover EventKind = "ps_recover"
)

// ErrDeparted marks a membership or injection spec that references a
// worker which is not active where the spec needs it: a leave/fail of an
// already-departed worker, or a straggler window that never overlaps its
// worker's active iterations. The service layer maps it to the
// departed_worker error code.
var ErrDeparted = errors.New("cluster: references a departed worker")

// MembershipEvent is one deterministic change to the fleet during a run.
// Events are windowed by protocol iteration index (warmup included),
// exactly like Straggler and Contention windows.
type MembershipEvent struct {
	// Kind selects the event type.
	Kind EventKind
	// Worker is the target worker index for worker events.
	Worker int
	// PS is the target parameter-server index for PS events.
	PS int
	// Iteration is the protocol iteration the event applies to. Joins,
	// leaves and recoveries take effect at the start of the iteration;
	// fails strike mid-iteration (see FailPoint).
	Iteration int
	// FailPoint is the fraction of the failed iteration's aborted attempt
	// that had completed when the failure struck, in (0, 1]; its wall time
	// is lost. Zero means the default 0.5.
	FailPoint float64
	// DegradedFactor multiplies the duration of every op touching a
	// failed shard's parameters until the shard recovers (>= 1). Zero
	// means the default 2.
	DegradedFactor float64
}

// failPoint resolves the default.
func (e MembershipEvent) failPoint() float64 {
	if e.FailPoint == 0 {
		return 0.5
	}
	return e.FailPoint
}

// degradedFactor resolves the default.
func (e MembershipEvent) degradedFactor() float64 {
	if e.DegradedFactor == 0 {
		return 2
	}
	return e.DegradedFactor
}

// EventsDigest returns a hex SHA-256 digest of a membership event
// sequence, with the same stability contract as the internal/core digests:
// a pure function of every semantic field, so any change to the fleet's
// planned churn — an extra event, a different target, a shifted iteration,
// a nudged fail point — changes the digest. The empty sequence digests to
// the empty string, keeping churn-free cache keys identical to their
// pre-membership form.
func EventsDigest(events []MembershipEvent) string {
	if len(events) == 0 {
		return ""
	}
	h := sha256.New()
	writeDigestString(h, "membership-events")
	for _, e := range events {
		writeDigestString(h, string(e.Kind))
		writeDigestInt64(h, int64(e.Worker))
		writeDigestInt64(h, int64(e.PS))
		writeDigestInt64(h, int64(e.Iteration))
		writeDigestFloat(h, e.FailPoint)
		writeDigestFloat(h, e.DegradedFactor)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeDigestString(h hash.Hash, s string) {
	writeDigestInt64(h, int64(len(s)))
	h.Write([]byte(s))
}

func writeDigestInt64(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func writeDigestFloat(h hash.Hash, f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	h.Write(buf[:])
}

// memberState is the resolved fleet state for one protocol iteration.
type memberState struct {
	// active/activeN describe the fleet executing the iteration's
	// reported run (fails at this iteration already excluded).
	active  []bool
	activeN int
	// degraded holds the per-PS duration multiplier (1 = healthy),
	// nil when every shard is healthy.
	degraded []float64
	// eventsHere are the events striking at exactly this iteration, in
	// timeline order.
	eventsHere []MembershipEvent
	// preActive/preDegraded describe the fleet during the aborted attempt
	// when a fail strikes this iteration (failing workers still active,
	// failing shards not yet degraded); preActive is nil when no fail
	// strikes here.
	preActive   []bool
	preDegraded []float64
}

// Timeline resolves a validated membership-event sequence into
// per-iteration fleet states. It is deterministic: the same events yield
// the same states, and nothing in it consults a clock or an unseeded RNG.
// A Timeline is safe for concurrent use.
type Timeline struct {
	workers int
	ps      int
	events  []MembershipEvent // sorted by Iteration, input order preserved within one
	initial []bool            // fleet before iteration 0

	mu sync.Mutex
	// memo caches resolved per-iteration states.
	//tictac:guardedby mu
	memo map[int]*memberState
}

// NewTimeline validates a membership-event sequence against a fleet of
// the given size and returns its timeline. Validation enforces the event
// grammar: joins only activate inactive workers, leaves/fails only remove
// active ones (violations wrap ErrDeparted), at least one worker stays
// active at all times, and PS fail/recover events alternate per shard.
// Workers whose first event is a join start the run inactive; all others
// start active.
func NewTimeline(workers, ps int, events []MembershipEvent) (*Timeline, error) {
	if workers < 1 || ps < 1 {
		return nil, fmt.Errorf("cluster: timeline needs >= 1 worker and >= 1 PS")
	}
	sorted := append([]MembershipEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Iteration < sorted[j].Iteration })

	initial := make([]bool, workers)
	for w := range initial {
		initial[w] = true
	}
	for _, e := range sorted {
		switch e.Kind {
		case WorkerJoin, WorkerLeave, WorkerFail:
			if e.Worker < 0 || e.Worker >= workers {
				return nil, fmt.Errorf("cluster: %s worker %d out of range [0, %d)", e.Kind, e.Worker, workers)
			}
		case PSShardFail, PSRecover:
			if e.PS < 0 || e.PS >= ps {
				return nil, fmt.Errorf("cluster: %s ps %d out of range [0, %d)", e.Kind, e.PS, ps)
			}
		default:
			return nil, fmt.Errorf("cluster: unknown membership event kind %q", e.Kind)
		}
		if e.Iteration < 0 {
			return nil, fmt.Errorf("cluster: %s at negative iteration %d", e.Kind, e.Iteration)
		}
		if e.FailPoint < 0 || e.FailPoint > 1 {
			return nil, fmt.Errorf("cluster: %s fail point %v outside (0, 1]", e.Kind, e.FailPoint)
		}
		if e.DegradedFactor != 0 && e.DegradedFactor < 1 {
			return nil, fmt.Errorf("cluster: %s degraded factor %v < 1", e.Kind, e.DegradedFactor)
		}
	}
	// A worker whose first event is a join starts inactive.
	seen := make([]bool, workers)
	for _, e := range sorted {
		switch e.Kind {
		case WorkerJoin, WorkerLeave, WorkerFail:
			if !seen[e.Worker] {
				seen[e.Worker] = true
				if e.Kind == WorkerJoin {
					initial[e.Worker] = false
				}
			}
		}
	}
	// Replay once to validate sequencing.
	active := append([]bool(nil), initial...)
	activeN := 0
	for _, a := range active {
		if a {
			activeN++
		}
	}
	if activeN == 0 {
		return nil, fmt.Errorf("cluster: no worker is active before iteration 0")
	}
	down := make([]bool, ps)
	for _, e := range sorted {
		switch e.Kind {
		case WorkerJoin:
			if active[e.Worker] {
				return nil, fmt.Errorf("cluster: worker_join for worker %d at iteration %d, but it is already active", e.Worker, e.Iteration)
			}
			active[e.Worker] = true
			activeN++
		case WorkerLeave, WorkerFail:
			if !active[e.Worker] {
				return nil, fmt.Errorf("cluster: %s for worker %d at iteration %d %w", e.Kind, e.Worker, e.Iteration, ErrDeparted)
			}
			if activeN == 1 {
				return nil, fmt.Errorf("cluster: %s for worker %d at iteration %d would leave no active workers", e.Kind, e.Worker, e.Iteration)
			}
			active[e.Worker] = false
			activeN--
		case PSShardFail:
			if down[e.PS] {
				return nil, fmt.Errorf("cluster: ps_shard_fail for ps %d at iteration %d, but it is already degraded", e.PS, e.Iteration)
			}
			down[e.PS] = true
		case PSRecover:
			if !down[e.PS] {
				return nil, fmt.Errorf("cluster: ps_recover for ps %d at iteration %d, but it is not degraded", e.PS, e.Iteration)
			}
			down[e.PS] = false
		}
	}
	return &Timeline{
		workers: workers,
		ps:      ps,
		events:  sorted,
		initial: initial,
		memo:    map[int]*memberState{},
	}, nil
}

// Empty reports whether the timeline carries no events.
func (t *Timeline) Empty() bool { return len(t.events) == 0 }

// ActiveAt reports whether the worker is active for iteration iter's
// reported run (a worker failing mid-iteration iter counts as inactive,
// since the reported run excludes it).
func (t *Timeline) ActiveAt(worker, iter int) bool {
	if worker < 0 || worker >= t.workers {
		return false
	}
	return t.stateAt(iter).active[worker]
}

// stateAt resolves (and memoizes) the fleet state for one iteration.
func (t *Timeline) stateAt(iter int) *memberState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.memo[iter]; ok {
		return s
	}
	s := t.resolve(iter)
	t.memo[iter] = s
	return s
}

// resolve replays the event sequence up to and including iter. Joins,
// leaves and recoveries apply at the start of their iteration; the
// pre-fail snapshot is taken after those, so a fail's aborted attempt
// already reflects the same iteration's clean membership changes.
func (t *Timeline) resolve(iter int) *memberState {
	s := &memberState{
		active:  append([]bool(nil), t.initial...),
		activeN: 0,
	}
	for _, a := range s.active {
		if a {
			s.activeN++
		}
	}
	degraded := make([]float64, t.ps)
	for j := range degraded {
		degraded[j] = 1
	}
	anyDegraded := false
	apply := func(e MembershipEvent) {
		switch e.Kind {
		case WorkerJoin:
			s.active[e.Worker] = true
			s.activeN++
		case WorkerLeave, WorkerFail:
			s.active[e.Worker] = false
			s.activeN--
		case PSShardFail:
			degraded[e.PS] = e.degradedFactor()
			anyDegraded = true
		case PSRecover:
			degraded[e.PS] = 1
		}
	}
	i := 0
	for ; i < len(t.events) && t.events[i].Iteration < iter; i++ {
		apply(t.events[i])
	}
	// Events striking at exactly iter: start-of-iteration events first,
	// then the pre-fail snapshot, then the fails.
	hasFail := false
	for j := i; j < len(t.events) && t.events[j].Iteration == iter; j++ {
		e := t.events[j]
		s.eventsHere = append(s.eventsHere, e)
		if e.Kind == WorkerFail || e.Kind == PSShardFail {
			hasFail = true
		} else {
			apply(e)
		}
	}
	if hasFail {
		s.preActive = append([]bool(nil), s.active...)
		if anyDegraded {
			s.preDegraded = append([]float64(nil), degraded...)
		}
		for _, e := range s.eventsHere {
			if e.Kind == WorkerFail || e.Kind == PSShardFail {
				apply(e)
			}
		}
	}
	if anyDegraded {
		s.degraded = degraded
	}
	return s
}
