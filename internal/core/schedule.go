package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"weak"

	"tictac/internal/graph"
	"tictac/internal/timing"
)

// Algorithm names a scheduling heuristic.
type Algorithm string

const (
	// AlgoNone is the baseline: no enforced order (random transfer order).
	AlgoNone Algorithm = "none"
	// AlgoTIC is Timing-Independent Communication scheduling (§4.2).
	AlgoTIC Algorithm = "tic"
	// AlgoTAC is Timing-Aware Communication scheduling (§4.3).
	AlgoTAC Algorithm = "tac"
)

// Schedule is the output of the ordering wizard: a priority assignment over
// the partition's transfers.
//
// Keys are transfer keys: the op's Param name when set (so a schedule
// computed on a reference worker applies to every worker replica and to the
// PS-side send ops of the same parameter), falling back to the op name for
// ad-hoc graphs.
//
// A Schedule is immutable after construction and safe for concurrent use by
// multiple goroutines (the parallel bench engine shares one schedule across
// simulator runs). Always construct and pass schedules by pointer; do not
// mutate Rank or Order after handing a schedule to a reader.
type Schedule struct {
	// Algorithm records which heuristic produced the schedule.
	Algorithm Algorithm
	// Rank maps a transfer key to its raw priority class. Lower ranks are
	// scheduled earlier; distinct keys may share a rank (ties), in which
	// case their relative order is insignificant (§3.1).
	Rank map[string]int
	// Order is the normalized total order over transfer keys, sequentially
	// assigned to [0, n) for the counter-based enforcement module (§5.1).
	// Ties in Rank are broken by recv-op graph order (deterministic).
	Order []string

	posOnce  sync.Once
	posCache map[string]int

	// compiled memoizes the last position table a simulator compiled for
	// the schedule (see Positions). It lives and dies with the schedule and
	// holds its key weakly, so neither a simulator nor a cached schedule
	// pins the other's memory.
	compiled atomic.Pointer[compiledPositions]
}

// compiledPositions is one position table and the key it is memoized under.
type compiledPositions struct {
	key weak.Pointer[PositionsKey]
	pos []int32
}

// PositionsKey names one op-ID space that schedules are compiled into: a
// simulator allocates one per graph it executes and memoizes the position
// tables it compiles under it (see Positions and Memoize). Keys are told
// apart by identity.
type PositionsKey struct{ _ byte }

// Key returns the transfer key used by schedules for the given op.
func Key(op *graph.Op) string {
	if op.Param != "" {
		return op.Param
	}
	return op.Name
}

// Position returns the normalized priority number of the op's transfer in
// [0, n), and whether the transfer is part of the schedule.
func (s *Schedule) Position(op *graph.Op) (int, bool) {
	return s.PositionOf(Key(op))
}

// PositionOf returns the normalized priority number of a transfer key in
// [0, n), and whether the key is part of the schedule.
func (s *Schedule) PositionOf(key string) (int, bool) {
	if s == nil {
		return 0, false
	}
	r, ok := s.rankIndex()[key]
	return r, ok
}

// rankIndex lazily inverts Order into a position map. The sync.Once makes
// the lazy build safe when concurrent simulator runs share one schedule.
func (s *Schedule) rankIndex() map[string]int {
	s.posOnce.Do(func() {
		s.posCache = make(map[string]int, len(s.Order))
		for i, k := range s.Order {
			s.posCache[k] = i
		}
	})
	return s.posCache
}

// Compile flattens the schedule into a dense position table for the given
// graph: the element at op.ID is the op's normalized priority number, or -1
// when the op's transfer is not part of the schedule. A nil schedule
// compiles to an all -1 table (everything unprioritized — the baseline).
//
// The compiled view is what the simulator's inner loop consumes: indexing a
// slice by op.ID replaces the transfer-key string lookup of Position on
// every dispatch decision. The table is a snapshot; it is only valid for
// the graph it was compiled against, and positions agree exactly with
// Position for every op of that graph. The simulator compiles the same
// table from its own transfer-key index, and calls Compile only for a
// schedule that index cannot answer.
func (s *Schedule) Compile(g *graph.Graph) []int32 {
	pos := make([]int32, g.Len())
	for i := range pos {
		pos[i] = -1
	}
	if s == nil {
		return pos
	}
	idx := s.rankIndex()
	for _, op := range g.Ops() {
		if p, ok := idx[Key(op)]; ok {
			pos[op.ID] = int32(p)
		}
	}
	return pos
}

// Positions returns the position table memoized under key, or nil when
// the schedule holds none for it. The table is shared: callers must not
// modify it.
func (s *Schedule) Positions(key *PositionsKey) []int32 {
	if c := s.compiled.Load(); c != nil && c.key.Value() == key {
		return c.pos
	}
	return nil
}

// Memoize keeps pos, a position table compiled for the op-ID space key
// names, for Positions to return. The schedule keeps one table, so it
// replaces a table memoized under any other key. The table is freed with
// the schedule, so a long-lived simulator that runs many short-lived
// schedules retains none of them.
func (s *Schedule) Memoize(key *PositionsKey, pos []int32) {
	s.compiled.Store(&compiledPositions{key: weak.Make(key), pos: pos})
}

// properties holds the per-op quantities of Algorithm 1.
type properties struct {
	// m is op.M: total outstanding communication time the op depends on.
	m []float64
	// p is recvOp.P: directly-dependent compute load.
	p []float64
	// mPlus is recvOp.M+: impending communication load.
	mPlus []float64
}

// updateProperties implements Algorithm 1 for the outstanding recv set r.
// times[opID] caches oracle times.
func updateProperties(d *Deps, times []float64, r bitset) properties {
	nOps := len(d.ops)
	pr := properties{
		m:     make([]float64, nOps),
		p:     make([]float64, len(d.recvs)),
		mPlus: make([]float64, len(d.recvs)),
	}
	// op.M ← Σ Time(recv) over op.dep ∩ R   (Algorithm 1 line 3)
	for _, op := range d.ops {
		sum := 0.0
		d.dep[op.ID].forEachAnd(r, func(i int) {
			sum += times[d.recvs[i].ID]
		})
		pr.m[op.ID] = sum
	}
	// Outstanding recvs: P ← 0, M+ ← +∞   (lines 5-8)
	for i := range d.recvs {
		pr.mPlus[i] = math.Inf(1)
	}
	// Non-outstanding ops contribute P and M+   (lines 9-17)
	for _, op := range d.ops {
		if idx, isRecv := d.recvIndex[op.ID]; isRecv && r.has(idx) {
			continue // op ∈ R
		}
		switch d.dep[op.ID].countAnd(r) {
		case 0:
			// No outstanding dependencies: activates regardless.
		case 1:
			d.dep[op.ID].forEachAnd(r, func(i int) {
				pr.p[i] += times[op.ID]
			})
		default:
			opM := pr.m[op.ID]
			d.dep[op.ID].forEachAnd(r, func(i int) {
				if opM < pr.mPlus[i] {
					pr.mPlus[i] = opM
				}
			})
		}
	}
	return pr
}

// opTimes caches oracle.Time for every op.
func opTimes(d *Deps, oracle timing.Oracle) []float64 {
	times := make([]float64, len(d.ops))
	for _, op := range d.ops {
		times[op.ID] = oracle.Time(op)
	}
	return times
}

// GeneralOracle is the universal time oracle of TIC (§4.2, eq. 5):
// Time(op) = 1 for recv ops and 0 otherwise.
var GeneralOracle timing.Oracle = timing.OracleFunc(func(op *graph.Op) float64 {
	if op.Kind == graph.Recv {
		return 1
	}
	return 0
})

// TIC computes the Timing-Independent Communication schedule (Algorithm 2)
// of the worker partition g: every recv op's priority class is its impending
// communication load M+ under the general 0/1 oracle, so transfers that
// unblock computation with the fewest sibling transfers come first.
func TIC(g *graph.Graph) (*Schedule, error) {
	d, err := FindDependencies(g)
	if err != nil {
		return nil, err
	}
	return ticFromDeps(d)
}

func ticFromDeps(d *Deps) (*Schedule, error) {
	if d.NumRecvs() == 0 {
		return &Schedule{Algorithm: AlgoTIC, Rank: map[string]int{}}, nil
	}
	times := opTimes(d, GeneralOracle)
	all := newBitset(len(d.recvs))
	for i := range d.recvs {
		all.set(i)
	}
	pr := updateProperties(d, times, all)

	// Rank classes: finite M+ ascending; +∞ (recvs that gate no multi-recv
	// op) sink to the final class — they "need not be ordered" (§3.1).
	ranks := make(map[string]int, len(d.recvs))
	maxFinite := 0.0
	for i := range d.recvs {
		if !math.IsInf(pr.mPlus[i], 1) && pr.mPlus[i] > maxFinite {
			maxFinite = pr.mPlus[i]
		}
	}
	order := make([]int, len(d.recvs))
	keysSeen := make(map[string]bool, len(d.recvs))
	for i, recv := range d.recvs {
		class := pr.mPlus[i]
		if math.IsInf(class, 1) {
			class = maxFinite + 1
		}
		key := Key(recv)
		if keysSeen[key] {
			return nil, fmt.Errorf("core: duplicate transfer key %q in partition", key)
		}
		keysSeen[key] = true
		ranks[key] = int(class)
		order[i] = i
	}
	// Normalized total order: by rank, ties by recv graph order.
	sortStableBy(order, func(a, b int) bool {
		ra, rb := ranks[Key(d.recvs[a])], ranks[Key(d.recvs[b])]
		if ra != rb {
			return ra < rb
		}
		return a < b
	})
	sched := &Schedule{Algorithm: AlgoTIC, Rank: ranks, Order: make([]string, len(order))}
	for pos, i := range order {
		sched.Order[pos] = Key(d.recvs[i])
	}
	return sched, nil
}

// TAC computes the Timing-Aware Communication schedule (Algorithm 3): an
// iterative greedy selection that, at each step, recomputes Algorithm 1's
// properties for the outstanding set and picks the minimum recv under the
// comparator derived from Case 1/Case 2 (§4.3).
//
// Note on the comparator: the paper's Algorithm 3 listing computes
// A ← min(P_A, M_B), B ← min(P_B, M_A) and returns A < B, which contradicts
// its own derivation (equation 6: A ≺ B ⟺ min{P_B, M_A} < min{P_A, M_B})
// and the Figure 1 example (recv1 with positive P must precede recv2 with
// P = 0). We implement equation 6; the listing's operand order appears to be
// a transcription slip.
func TAC(g *graph.Graph, oracle timing.Oracle) (*Schedule, error) {
	if oracle == nil {
		return nil, fmt.Errorf("core: TAC requires a time oracle")
	}
	d, err := FindDependencies(g)
	if err != nil {
		return nil, err
	}
	return tacFromDeps(d, oracle)
}

func tacFromDeps(d *Deps, oracle timing.Oracle) (*Schedule, error) {
	n := d.NumRecvs()
	sched := &Schedule{Algorithm: AlgoTAC, Rank: make(map[string]int, n)}
	if n == 0 {
		return sched, nil
	}
	times := opTimes(d, oracle)
	r := newBitset(n)
	for i := 0; i < n; i++ {
		r.set(i)
	}
	seen := make(map[string]bool, n)
	for count := 0; count < n; count++ {
		pr := updateProperties(d, times, r)
		best := -1
		for i := 0; i < n; i++ {
			if !r.has(i) {
				continue
			}
			if best < 0 || tacLess(&pr, times, d, i, best) {
				best = i
			}
		}
		r.clear(best)
		key := Key(d.recvs[best])
		if seen[key] {
			return nil, fmt.Errorf("core: duplicate transfer key %q in partition", key)
		}
		seen[key] = true
		sched.Rank[key] = count
		sched.Order = append(sched.Order, key)
	}
	return sched, nil
}

// tacLess reports whether recv index a should precede recv index b
// (equation 6 with the M+ tie-break of Case 2).
func tacLess(pr *properties, times []float64, d *Deps, a, b int) bool {
	ma := times[d.recvs[a].ID] // M of a recv op is its own transfer time
	mb := times[d.recvs[b].ID]
	lhs := math.Min(pr.p[b], ma)
	rhs := math.Min(pr.p[a], mb)
	if lhs != rhs {
		return lhs < rhs
	}
	if pr.mPlus[a] != pr.mPlus[b] {
		return pr.mPlus[a] < pr.mPlus[b]
	}
	return a < b // deterministic final tie-break
}

// sortStableBy is a tiny insertion sort (stable) to avoid importing sort for
// an index slice with a closure comparator.
func sortStableBy(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
