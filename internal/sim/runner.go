package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/timing"
)

// Runner is a reusable discrete-event executor bound to one graph.
//
// NewRunner precomputes everything about the graph that the old one-shot
// Run derived on every call — the sorted resource index, a flat successor
// adjacency (CSR), per-op resource/device indices and recv/transfer
// flags — and every run reuses the per-run mutable state
// (indegree, ready queues, busy flags, event queue, RNG, per-op intervals)
// across calls. Its inner loop indexes dense tables instead of hashing
// strings or calling the cost model.
//
// One event loop serves two entry points. Summarize executes a Plan — the
// run's inputs as op-ID-indexed tables — and hands the caller a Summary
// read in place from the recycled buffers: a steady-state Summarize
// allocates nothing. Run compiles a Config into a Plan on the same
// buffers, executes it the same way and materializes a *Result from the
// summary.
//
// Schedules are consumed in compiled form: the Runner compiles a
// schedule's position table from its own transfer-key index and memoizes
// it on the schedule under a key it owns (core.Schedule.Memoize), so the
// measured iterations of a protocol pay the compilation once and the
// Runner retains no schedule.
//
// Summarize reads only the Runner's own tables, so a long-lived caller may
// release the graph with DropGraph; Run and a few rare paths read ops and
// reload it then.
//
// A Runner is safe for concurrent use: each run borrows an exclusive state
// (a lock-free primary slot backed by a sync.Pool for concurrent overflow),
// so any number of goroutines may execute the same Runner — the parallel
// bench engine's repeated-run experiments rely on this. Results are
// bit-identical to the pre-Runner implementation (and to sim.Run): same RNG
// draw sequence, same floating-point arithmetic — pinned by the parity
// tests against internal/sim/simref.
type Runner struct {
	// g is the graph NewRunner was given, nil after DropGraph; load then
	// returns it on the paths that read ops.
	g    *graph.Graph
	load func() (*graph.Graph, error)

	resNames []string // sorted resource tags; index = resource ID
	devNames []string // sorted device tags; index = device ID

	opRes      []int32      // op ID → resource index
	opDev      []int32      // op ID → device index
	succOff    []int32      // CSR offsets into succ, len(ops)+1
	succ       []int32      // successor op IDs in Out() order
	indeg0     []int32      // baseline indegrees
	initReady  [][]int32    // per-resource root op IDs in op-ID order
	opKind     []graph.Kind // op ID → kind
	totalRecvs int
	nRecvDevs  int // devices hosting at least one recv op

	// keys are the graph's distinct parameter tags, in op-ID order of first
	// use. opKey maps op ID → the index in keys of the op's transfer key
	// (core.Key), or -1 when that key is an op name that is no parameter
	// tag. Compiling a schedule reads these instead of the ops.
	keys  []string
	opKey []int32
	// posKey is the key schedules memoize this Runner's position tables
	// under.
	posKey *core.PositionsKey

	// prime is the fast-path reusable state: single-goroutine callers hit
	// it deterministically (no GC-emptied pool on the steady-state path);
	// concurrent callers overflow into the pool.
	prime     atomic.Pointer[runState]
	statePool sync.Pool
}

// NewRunner validates the graph (acyclicity) and builds the precomputed
// execution view. The graph must not be mutated afterwards.
func NewRunner(g *graph.Graph) (*Runner, error) {
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ops := g.Ops()
	n := len(ops)

	resNames := g.Resources()
	resIndex := make(map[string]int, len(resNames))
	for i, name := range resNames {
		resIndex[name] = i
	}
	devNames := g.Devices()
	devIndex := make(map[string]int, len(devNames))
	for i, name := range devNames {
		devIndex[name] = i
	}

	r := &Runner{
		g:         g,
		resNames:  resNames,
		devNames:  devNames,
		opRes:     make([]int32, n),
		opDev:     make([]int32, n),
		succOff:   make([]int32, n+1),
		indeg0:    make([]int32, n),
		initReady: make([][]int32, len(resNames)),
		opKind:    make([]graph.Kind, n),
		opKey:     make([]int32, n),
		posKey:    new(core.PositionsKey),
	}
	keyIndex := make(map[string]int32)
	for i, op := range ops {
		if op.Param == "" {
			continue
		}
		k, ok := keyIndex[op.Param]
		if !ok {
			k = int32(len(r.keys))
			keyIndex[op.Param] = k
			r.keys = append(r.keys, op.Param)
		}
		r.opKey[i] = k
	}
	// An op without a parameter is keyed by its name, which the index
	// holds only when it is also a parameter tag.
	for i, op := range ops {
		if op.Param != "" {
			continue
		}
		r.opKey[i] = -1
		if k, ok := keyIndex[op.Name]; ok {
			r.opKey[i] = k
		}
	}
	recvDevs := make([]bool, len(devNames))
	for i, op := range ops {
		r.opRes[i] = int32(resIndex[op.Resource])
		r.opDev[i] = int32(devIndex[op.Device])
		r.indeg0[i] = int32(op.NumIn())
		r.opKind[i] = op.Kind
		r.succOff[i+1] = r.succOff[i] + int32(op.NumOut())
		if op.Kind == graph.Recv {
			r.totalRecvs++
			if di := devIndex[op.Device]; !recvDevs[di] {
				recvDevs[di] = true
				r.nRecvDevs++
			}
		}
		if op.NumIn() == 0 {
			ri := resIndex[op.Resource]
			r.initReady[ri] = append(r.initReady[ri], int32(i))
		}
	}
	r.succ = make([]int32, r.succOff[n])
	for i, op := range ops {
		k := r.succOff[i]
		for _, s := range op.Out() {
			r.succ[k] = int32(s.ID)
			k++
		}
	}
	return r, nil
}

// DropGraph releases the Runner's reference to its graph, so a Runner kept
// for its Summarize runs does not pin the graph's ops. The paths that
// still read ops — Run, and compiling a schedule with a key that is no
// parameter tag of the graph — call load instead, which must return the
// graph NewRunner was given or one op for op the same. Call DropGraph
// before sharing the Runner: it must not race with a run.
func (r *Runner) DropGraph(load func() (*graph.Graph, error)) {
	r.g, r.load = nil, load
}

// graph returns the Runner's graph, reloading it after DropGraph.
func (r *Runner) graph() (*graph.Graph, error) {
	if r.g != nil {
		return r.g, nil
	}
	g, err := r.load()
	if err != nil {
		return nil, fmt.Errorf("sim: reloading the graph: %w", err)
	}
	if g.Len() != len(r.opRes) {
		return nil, fmt.Errorf("sim: reloaded graph has %d ops, the Runner %d", g.Len(), len(r.opRes))
	}
	return g, nil
}

// TransferKey returns the transfer key (core.Key) of op id when it is a
// parameter tag of the graph, as it is for every op with a parameter, and
// "" when the op's key is its name, which the Runner does not keep.
func (r *Runner) TransferKey(id int32) string {
	if k := r.opKey[id]; k >= 0 {
		return r.keys[k]
	}
	return ""
}

// DeviceIndex returns the index of a device tag in the Runner's sorted
// device table — the index Summary.DeviceFinish and Summary.RecvOrder use —
// or -1 when no op of the graph runs on it.
func (r *Runner) DeviceIndex(device string) int {
	i := sort.SearchStrings(r.devNames, device)
	if i < len(r.devNames) && r.devNames[i] == device {
		return i
	}
	return -1
}

// Plan is one run's inputs in the dense form the event loop executes:
// every per-op quantity is a table indexed by op ID, or by a caller-defined
// factor group, so a dispatch makes no interface call and no map lookup.
// Run compiles a Config into a Plan; a caller that runs one graph under one
// cost model many times (the cluster protocol) compiles its cost table once
// and passes Plans to Summarize.
type Plan struct {
	// Costs is op ID → duration before scaling and jitter: Oracle.Time in
	// table form. Required, one entry per op.
	Costs []float64
	// Groups maps op ID → factor group, the index into Scale and Masked.
	// Nil makes every op its own group (Scale and Masked indexed by op ID).
	Groups []int32
	// Scale, when non-nil, is group → duration multiplier applied before
	// jitter: Config.CostScale in table form.
	Scale []float64
	// Masked, when non-nil, is group → whether the group's ops are masked
	// out of the run: Config.Disabled in table form.
	Masked []bool
	// Schedule, Seed, Jitter, ReorderProb and Tracer are as in Config.
	Schedule    *core.Schedule
	Seed        int64
	Jitter      float64
	ReorderProb float64
	Tracer      *timing.Tracer
	// Names is op ID → op name, the names the Tracer records durations
	// under. Required with a Tracer, one entry per op; unread without one.
	Names []string
}

// Summary is a finished run read in place from the Runner's recycled
// buffers: everything a Result holds, without building one. It is valid
// only inside the Summarize callback; the next run reuses its storage.
type Summary struct {
	// Makespan is the completion time of the last op.
	Makespan float64
	// ReorderEvents counts injected schedule inversions.
	ReorderEvents int
	// SeedFree reports that no seeded draw could have changed the run: the
	// plan has no jitter and no reorder injection, and no pick chose among
	// two or more candidates. Such a run is the same under every seed.
	SeedFree bool
	// Start and End are op ID → execution interval. They are meaningful
	// only for executed ops (see Executed); a masked op's entries are stale.
	Start, End []float64
	// Done lists the executed ops in completion order.
	Done []int32
	// DeviceFinish is device index (see Runner.DeviceIndex) → finish time
	// of the device's last executed op, 0 when none ran.
	DeviceFinish []float64

	recvOrd [][]int32 // device index → recv op IDs in dispatch order
	groups  []int32   // the run's Plan.Groups and Plan.Masked
	masked  []bool
}

// RecvOrder returns the op IDs of the device's recv ops in dispatch order
// (the observable "order of received parameters", §2.2).
func (s *Summary) RecvOrder(dev int) []int32 { return s.recvOrd[dev] }

// Executed reports whether the op ran, i.e. was not masked out.
func (s *Summary) Executed(id int32) bool {
	if s.masked == nil {
		return true
	}
	g := id
	if s.groups != nil {
		g = s.groups[id]
	}
	return !s.masked[g]
}

// runState is the mutable per-run scratch. One state serves one run at a
// time; the Runner recycles states across runs.
type runState struct {
	out   Summary // the run's outputs; its slices are this state's buffers
	rng   *rand.Rand
	indeg []int32
	ready [][]int32 // per resource, op IDs
	busy  []bool
	q     evq
	cand  []int32 // incremental dispatch: sorted unique resource IDs

	// cost and mask hold a Config compiled by Run; Summarize never
	// touches them, so they are allocated on a state's first Run.
	cost []float64
	mask []bool

	// The run's plan and compiled schedule (nil without one), copied in so
	// the hot functions take no extra arguments. Cleared when the state is
	// recycled.
	plan Plan
	pos  []int32

	// cur is the resource whose completion the loop is handling, -1
	// before the first. Its slot stays at the heap root for the whole
	// dispatch phase, so a completion it dispatches waits in held.
	cur  int32
	held slot

	now      float64
	seq      int32
	reorders int
	// chose records that a pick drew among two or more candidates.
	chose bool
}

func (r *Runner) newState() *runState {
	n := len(r.opRes)
	st := &runState{
		rng:   rand.New(rand.NewSource(0)),
		indeg: make([]int32, n),
		ready: make([][]int32, len(r.resNames)),
		busy:  make([]bool, len(r.resNames)),
		q: evq{
			slot: make([]slot, len(r.resNames)),
			heap: make([]int32, 0, len(r.resNames)),
		},
		cand: make([]int32, 0, 16),
	}
	st.out = Summary{
		Start:        make([]float64, n),
		End:          make([]float64, n),
		Done:         make([]int32, 0, n),
		DeviceFinish: make([]float64, len(r.devNames)),
		recvOrd:      make([][]int32, len(r.devNames)),
	}
	return st
}

func (r *Runner) getState() *runState {
	if st := r.prime.Swap(nil); st != nil {
		return st
	}
	if v := r.statePool.Get(); v != nil {
		return v.(*runState)
	}
	return r.newState()
}

func (r *Runner) putState(st *runState) {
	st.plan, st.pos = Plan{}, nil
	st.out.groups, st.out.masked = nil, nil
	if r.prime.CompareAndSwap(nil, st) {
		return
	}
	r.statePool.Put(st)
}

// Summarize executes the plan once and calls fn with the run's summary
// before its buffers are recycled; fn must not retain the summary or its
// slices. fn is not called when the run fails. A steady-state Summarize
// allocates nothing.
//
//tictac:hotpath
func (r *Runner) Summarize(p *Plan, fn func(*Summary)) error {
	n := len(r.opRes)
	if len(p.Costs) != n {
		return fmt.Errorf("sim: Plan.Costs has %d entries for %d ops", len(p.Costs), n)
	}
	if p.Groups != nil && len(p.Groups) != n {
		return fmt.Errorf("sim: Plan.Groups has %d entries for %d ops", len(p.Groups), n)
	}
	if p.Tracer != nil && len(p.Names) != n {
		return fmt.Errorf("sim: a traced Plan has %d names for %d ops", len(p.Names), n)
	}
	st := r.getState()
	err := r.exec(p, st)
	if err == nil {
		fn(&st.out)
	}
	r.putState(st)
	return err
}

// Run executes the graph once under the given configuration and returns
// the materialized Result.
//
//tictac:hotpath
func (r *Runner) Run(cfg Config) (*Result, error) {
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("sim: Config.Oracle is required")
	}
	g, err := r.graph()
	if err != nil {
		return nil, err
	}
	ops := g.Ops()
	st := r.getState()
	p := r.compile(cfg, ops, st)
	err = r.exec(&p, st)
	var res *Result
	if err == nil {
		res = r.result(ops, &st.out)
	}
	r.putState(st)
	return res, err
}

// compile turns a Config into a Plan on the state's buffers: the oracle
// and cost scale folded into one per-op duration (the same product the
// dispatch computed, rounded once), and the mask evaluated per op. A traced
// run takes its names from ops.
//
//tictac:hotpath
func (r *Runner) compile(cfg Config, ops []*graph.Op, st *runState) Plan {
	if st.cost == nil {
		st.cost = make([]float64, len(ops))
	}
	for i, op := range ops {
		d := cfg.Oracle.Time(op)
		if cfg.CostScale != nil {
			d *= cfg.CostScale(op)
		}
		st.cost[i] = d
	}
	p := Plan{
		Costs:       st.cost,
		Schedule:    cfg.Schedule,
		Seed:        cfg.Seed,
		Jitter:      cfg.Jitter,
		ReorderProb: cfg.ReorderProb,
		Tracer:      cfg.Tracer,
	}
	if cfg.Disabled != nil {
		if st.mask == nil {
			st.mask = make([]bool, len(ops))
		}
		for i, op := range ops {
			st.mask[i] = cfg.Disabled(op)
		}
		p.Masked = st.mask
	}
	if cfg.Tracer != nil {
		p.Names = make([]string, len(ops))
		for i, op := range ops {
			p.Names[i] = op.Name
		}
	}
	return p
}

// exec is the event loop. Everything it touches is either in the
// precomputed Runner view, the plan's tables or the recycled runState; it
// leaves the run's outputs in st.out.
//
//tictac:hotpath
func (r *Runner) exec(p *Plan, st *runState) error {
	// Reset recycled state. The RNG is re-seeded in place, which yields
	// exactly the stream of rand.New(rand.NewSource(seed)).
	st.rng.Seed(p.Seed)
	copy(st.indeg, r.indeg0)
	for ri := range st.ready {
		st.ready[ri] = append(st.ready[ri][:0], r.initReady[ri]...)
		st.busy[ri] = false
	}
	out := &st.out
	for di := range out.recvOrd {
		out.recvOrd[di] = out.recvOrd[di][:0]
		out.DeviceFinish[di] = 0
	}
	out.Done = out.Done[:0]
	out.groups, out.masked = p.Groups, p.Masked
	st.q.heap = st.q.heap[:0]
	st.plan = *p
	st.pos = nil
	if p.Schedule != nil {
		pos, err := r.positions(p.Schedule)
		if err != nil {
			return err
		}
		st.pos = pos
	}
	st.now = 0
	st.seq = 0
	st.reorders = 0
	st.chose = false

	st.cur = -1
	for ri := range r.resNames {
		r.dispatch(st, int32(ri))
	}

	completed := 0
	for len(st.q.heap) > 0 {
		res := st.q.heap[0]
		ev := st.q.slot[res]
		st.now = ev.at
		st.busy[res] = false
		if !ev.masked {
			out.End[ev.op] = ev.at
			out.Done = append(out.Done, ev.op)
			if di := r.opDev[ev.op]; ev.at > out.DeviceFinish[di] {
				out.DeviceFinish[di] = ev.at
			}
		}
		completed++
		// Incremental dispatch: only the freed resource and resources that
		// gained ready ops can possibly dispatch (every other idle resource
		// had an empty ready queue after the previous event — the loop
		// below keeps that invariant). Visit them in ascending resource
		// order, exactly like the old full rescan did.
		st.cur = res
		st.cand = append(st.cand[:0], res)
		for k := r.succOff[ev.op]; k < r.succOff[ev.op+1]; k++ {
			succ := r.succ[k]
			st.indeg[succ]--
			if st.indeg[succ] == 0 {
				ri := r.opRes[succ]
				st.ready[ri] = append(st.ready[ri], succ)
				st.addCand(ri)
			}
		}
		for _, ri := range st.cand {
			r.dispatch(st, ri)
		}
		// Retire the handled completion. A freed resource that dispatched
		// again replaces it at the root in one sift.
		if st.busy[res] {
			st.q.slot[res] = st.held
			st.q.down(0)
		} else {
			st.q.pop()
		}
	}
	if completed != len(r.opRes) {
		return fmt.Errorf("sim: deadlock, completed %d of %d ops", completed, len(r.opRes))
	}
	out.Makespan = st.now
	out.ReorderEvents = st.reorders
	out.SeedFree = p.Jitter == 0 && p.ReorderProb == 0 && !st.chose
	return nil
}

// positions returns the schedule's position table over the Runner's op
// IDs, memoized on the schedule under the Runner's key.
//
//tictac:hotpath
func (r *Runner) positions(s *core.Schedule) ([]int32, error) {
	if pos := s.Positions(r.posKey); pos != nil {
		return pos, nil
	}
	pos, err := r.compilePositions(s)
	if err != nil {
		return nil, err
	}
	s.Memoize(r.posKey, pos)
	return pos, nil
}

// compilePositions is core.Schedule.Compile read through the transfer-key
// index: op i takes its key's position, -1 when the schedule leaves the key
// out. A schedule key that is no parameter tag may be the name of an op
// without a parameter, which only the graph knows, so such a schedule
// compiles against the graph.
func (r *Runner) compilePositions(s *core.Schedule) ([]int32, error) {
	kpos := make([]int32, len(r.keys))
	matched := 0
	for k, key := range r.keys {
		kpos[k] = -1
		if p, ok := s.PositionOf(key); ok {
			kpos[k] = int32(p)
			matched++
		}
	}
	if matched < len(s.Order) {
		g, err := r.graph()
		if err != nil {
			return nil, err
		}
		return s.Compile(g), nil
	}
	pos := make([]int32, len(r.opKey))
	for i, k := range r.opKey {
		pos[i] = -1
		if k >= 0 {
			pos[i] = kpos[k]
		}
	}
	return pos, nil
}

// result materializes a Result from a summary: spans in completion order
// and the per-device maps. One backing array serves every device's
// recv-order slice; full-capacity sub-slices keep appends by the caller
// (if any) from bleeding into a neighbour.
//
//tictac:hotpath
func (r *Runner) result(ops []*graph.Op, s *Summary) *Result {
	res := &Result{
		Makespan:       s.Makespan,
		ReorderEvents:  s.ReorderEvents,
		Spans:          make([]Span, len(s.Done)),
		RecvStartOrder: make(map[string][]string, r.nRecvDevs),
		DeviceFinish:   make(map[string]float64, len(r.devNames)),
	}
	for i, id := range s.Done {
		res.Spans[i] = Span{Op: ops[id], Start: s.Start[id], End: s.End[id]}
	}
	backing := make([]string, 0, r.totalRecvs)
	for di, ids := range s.recvOrd {
		if len(ids) == 0 {
			continue
		}
		start := len(backing)
		for _, id := range ids {
			backing = append(backing, core.Key(ops[id]))
		}
		res.RecvStartOrder[r.devNames[di]] = backing[start:len(backing):len(backing)]
	}
	for di, finish := range s.DeviceFinish {
		if finish > 0 {
			res.DeviceFinish[r.devNames[di]] = finish
		}
	}
	return res
}

// addCand inserts a resource index into the sorted unique candidate list.
//
//tictac:hotpath
func (st *runState) addCand(ri int32) {
	i := 0
	for i < len(st.cand) && st.cand[i] < ri {
		i++
	}
	if i < len(st.cand) && st.cand[i] == ri {
		return
	}
	st.cand = append(st.cand, 0)
	copy(st.cand[i+1:], st.cand[i:])
	st.cand[i] = ri
}

// dispatch starts the next op on resource ri if it is idle and has ready
// work: pick per the paper's rule, time the op, and push its completion.
//
//tictac:hotpath
func (r *Runner) dispatch(st *runState, ri int32) {
	if st.busy[ri] || len(st.ready[ri]) == 0 {
		return
	}
	ready := st.ready[ri]
	i, reordered := r.pick(st, ready)
	id := ready[i]
	// Swap-remove: the ready lists are unordered between picks, but the
	// swap pattern fixes the order the next pick scans.
	last := len(ready) - 1
	ready[i] = ready[last]
	st.ready[ri] = ready[:last]
	if reordered {
		st.reorders++
	}
	p := &st.plan
	g := id
	if p.Groups != nil {
		g = p.Groups[id]
	}
	if p.Masked != nil && p.Masked[g] {
		// Masked op: complete instantly with no interval, no jitter draw,
		// no recv-order entry — its only effect is releasing successors.
		st.complete(ri, slot{at: st.now, op: id, masked: true})
		return
	}
	dur := p.Costs[id]
	if p.Scale != nil {
		dur *= p.Scale[g]
	}
	if p.Jitter > 0 {
		factor := 1 + float64(p.Jitter*st.rng.NormFloat64())
		if factor < 0.05 {
			factor = 0.05
		}
		dur *= factor
	}
	if p.Tracer != nil {
		p.Tracer.Record(p.Names[id], dur)
	}
	if r.opKind[id] == graph.Recv {
		di := r.opDev[id]
		st.out.recvOrd[di] = append(st.out.recvOrd[di], id)
	}
	st.out.Start[id] = st.now
	st.complete(ri, slot{at: st.now + dur, op: id})
}

// complete marks resource ri busy and queues its pending completion e,
// stamped with the next sequence number. During a dispatch phase the
// handled resource's old completion still sits at the heap root, and the
// loop replaces it once the phase ends, so that resource's next completion
// is held aside until then. Every other completion queued in the phase is
// later than the root in (at, seq) — at no earlier, seq larger — so its
// sift-up stops below the root.
//
//tictac:hotpath
func (st *runState) complete(ri int32, e slot) {
	st.busy[ri] = true
	e.seq = st.seq
	st.seq++
	if ri == st.cur {
		st.held = e
		return
	}
	st.q.push(ri, e)
}

// pick selects the next op from a ready list per the paper's rule (§3.1)
// and returns its index in the list: candidates are the ops holding the
// lowest priority number plus the unprioritized ops; the choice among them
// is uniformly random. It consumes exactly the RNG draws of the pre-Runner
// implementation (including the Intn(1) draw when the candidate set is a
// singleton), so streams are bit-identical. Each draw among two or more
// candidates sets st.chose, which Summary.SeedFree reads; an Intn(1) draw
// returns 0 under every seed, so it does not. The second return value
// reports whether an injected reorder error displaced the top-priority
// transfer.
//
//tictac:hotpath
func (r *Runner) pick(st *runState, ready []int32) (int, bool) {
	if len(ready) == 1 {
		return 0, false
	}
	pos := st.pos
	if pos == nil {
		st.chose = true
		return st.rng.Intn(len(ready)), false
	}
	best, second := -1, -1
	bestPos, secondPos := int32(-1), int32(-1)
	unprio := 0
	for i, id := range ready {
		p := pos[id]
		if p < 0 {
			unprio++
			continue
		}
		switch {
		case best < 0 || p < bestPos:
			second, secondPos = best, bestPos
			best, bestPos = i, p
		case second < 0 || p < secondPos:
			second, secondPos = i, p
		}
	}
	if best < 0 {
		// Nothing is prioritized: every op is a candidate.
		st.chose = true
		return st.rng.Intn(len(ready)), false
	}
	// Injected gRPC-style inversion: dispatch the runner-up. Only network
	// transfers invert — the phenomenon lives in the RPC layer (§5.1), so
	// prioritized PS-side ops (which share the parameter's schedule key)
	// must not draw from the inversion stream.
	if second >= 0 && st.plan.ReorderProb > 0 && r.transfer(ready[best]) && st.rng.Float64() < st.plan.ReorderProb {
		return second, true
	}
	// The candidates are the unprioritized ops in list order, then best.
	if unprio > 0 {
		st.chose = true
	}
	k := st.rng.Intn(unprio + 1)
	if k == unprio {
		return best, false
	}
	// Walk to the k-th unprioritized op.
	i := -1
	for k >= 0 {
		i++
		if pos[ready[i]] < 0 {
			k--
		}
	}
	return i, false
}

// transfer reports whether op id is a network transfer, a recv or a send.
//
//tictac:hotpath
func (r *Runner) transfer(id int32) bool {
	k := r.opKind[id]
	return k == graph.Recv || k == graph.Send
}

// slot is a resource's pending completion.
type slot struct {
	at     float64
	seq    int32 // dispatch order: breaks ties in at
	op     int32
	masked bool // Disabled op: releases successors, records nothing
}

// evq is the pending-completion queue, keyed by resource. A resource runs
// one op at a time, so it has at most one pending completion: its slot.
// heap holds the resources with a pending completion as a binary min-heap
// ordered by their slots' (at, seq). seq is unique, so that order is total
// and the completion order does not depend on the heap's shape.
type evq struct {
	slot []slot  // resource index → pending completion
	heap []int32 // resource indices
}

//tictac:hotpath
func (q *evq) less(a, b int32) bool {
	if q.slot[a].at != q.slot[b].at {
		return q.slot[a].at < q.slot[b].at
	}
	return q.slot[a].seq < q.slot[b].seq
}

// push sets ri's pending completion and adds ri to the heap.
//
//tictac:hotpath
func (q *evq) push(ri int32, e slot) {
	q.slot[ri] = e
	i := len(q.heap)
	q.heap = append(q.heap, ri)
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(ri, q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		i = p
	}
	q.heap[i] = ri
}

// pop removes the root.
//
//tictac:hotpath
func (q *evq) pop() {
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
}

// down restores the heap order below i after i's key grew.
//
//tictac:hotpath
func (q *evq) down(i int) {
	ri := q.heap[i]
	n := len(q.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(q.heap[c+1], q.heap[c]) {
			c++
		}
		if !q.less(q.heap[c], ri) {
			break
		}
		q.heap[i] = q.heap[c]
		i = c
	}
	q.heap[i] = ri
}
