package cache

// recencyList is the doubly linked recency order shared by the built-in
// policies: head is most recently used, tail is the eviction end.
type recencyList struct {
	head, tail *recencyNode
}

type recencyNode struct {
	h          Handle
	cost       int64
	prev, next *recencyNode
}

func (l *recencyList) pushFront(n *recencyNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *recencyList) unlink(n *recencyNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *recencyList) moveToFront(n *recencyNode) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// lruPolicy is the default: evict the least recently used entry. It is the
// pre-registry behavior of this package, byte-for-byte — pinned by the
// regression tests in cache_test.go.
type lruPolicy struct {
	nodes map[Handle]*recencyNode
	list  recencyList
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{nodes: make(map[Handle]*recencyNode)}
}

func (p *lruPolicy) Name() string { return LRU }

func (p *lruPolicy) Admit(h Handle, _ string, cost int64) {
	n := &recencyNode{h: h, cost: cost}
	p.nodes[h] = n
	p.list.pushFront(n)
}

func (p *lruPolicy) Touch(h Handle) {
	if n, ok := p.nodes[h]; ok {
		p.list.moveToFront(n)
	}
}

func (p *lruPolicy) Victim() (Handle, bool) {
	if p.list.tail == nil {
		return 0, false
	}
	return p.list.tail.h, true
}

func (p *lruPolicy) Remove(h Handle) {
	if n, ok := p.nodes[h]; ok {
		p.list.unlink(n)
		delete(p.nodes, h)
	}
}

// lfuPolicy evicts the least frequently used entry, breaking frequency
// ties by least recency (the classic O(1) frequency-bucket LFU). minFreq
// is a lower bound on the true minimum frequency — Admit resets it to 1
// and Victim scans upward past emptied buckets — so victim selection stays
// exact without bookkeeping on every Touch.
type lfuPolicy struct {
	nodes   map[Handle]*lfuNode
	buckets map[uint64]*recencyList
	minFreq uint64
}

type lfuNode struct {
	n    recencyNode
	freq uint64
}

func newLFUPolicy() *lfuPolicy {
	return &lfuPolicy{nodes: make(map[Handle]*lfuNode), buckets: make(map[uint64]*recencyList)}
}

func (p *lfuPolicy) Name() string { return LFU }

func (p *lfuPolicy) bucket(freq uint64) *recencyList {
	l, ok := p.buckets[freq]
	if !ok {
		l = &recencyList{}
		p.buckets[freq] = l
	}
	return l
}

func (p *lfuPolicy) Admit(h Handle, _ string, cost int64) {
	n := &lfuNode{n: recencyNode{h: h, cost: cost}, freq: 1}
	p.nodes[h] = n
	p.bucket(1).pushFront(&n.n)
	p.minFreq = 1
}

func (p *lfuPolicy) Touch(h Handle) {
	n, ok := p.nodes[h]
	if !ok {
		return
	}
	p.bucket(n.freq).unlink(&n.n)
	n.freq++
	p.bucket(n.freq).pushFront(&n.n)
}

func (p *lfuPolicy) Victim() (Handle, bool) {
	if len(p.nodes) == 0 {
		return 0, false
	}
	for {
		if l, ok := p.buckets[p.minFreq]; ok && l.tail != nil {
			return l.tail.h, true
		}
		p.minFreq++
	}
}

func (p *lfuPolicy) Remove(h Handle) {
	if n, ok := p.nodes[h]; ok {
		p.bucket(n.freq).unlink(&n.n)
		delete(p.nodes, h)
	}
}

// sizePolicy evicts the largest-cost entry, breaking cost ties by least
// recency: under pressure it sacrifices one big entry to keep many small
// ones resident. Victim is an O(resident) scan — exact and deterministic;
// the caches this package serves hold hundreds of entries, not millions.
type sizePolicy struct {
	nodes map[Handle]*recencyNode
	list  recencyList
}

func newSizePolicy() *sizePolicy {
	return &sizePolicy{nodes: make(map[Handle]*recencyNode)}
}

func (p *sizePolicy) Name() string { return SizeAware }

func (p *sizePolicy) Admit(h Handle, _ string, cost int64) {
	n := &recencyNode{h: h, cost: cost}
	p.nodes[h] = n
	p.list.pushFront(n)
}

func (p *sizePolicy) Touch(h Handle) {
	if n, ok := p.nodes[h]; ok {
		p.list.moveToFront(n)
	}
}

func (p *sizePolicy) Victim() (Handle, bool) {
	// Scan from the LRU end so that, among equal costs, the least recently
	// used entry wins (strictly-greater replacement keeps the first seen).
	var best *recencyNode
	for n := p.list.tail; n != nil; n = n.prev {
		if best == nil || n.cost > best.cost {
			best = n
		}
	}
	if best == nil {
		return 0, false
	}
	return best.h, true
}

func (p *sizePolicy) Remove(h Handle) {
	if n, ok := p.nodes[h]; ok {
		p.list.unlink(n)
		delete(p.nodes, h)
	}
}

// beladyPolicy is the offline-optimal oracle (Belady's MIN with optional
// admission): primed with the full future access sequence it evicts the
// resident entry whose next use lies farthest in the future — entries never
// used again (or absent from the trace) go first. Unprimed (the registry
// factory) it has no future to consult and degrades to exact LRU, so it
// still satisfies the policy conformance contract.
//
// A primed oracle assumes it observes exactly the primed sequence: each
// Do/Get on the owning cache advances an internal cursor by one access.
// Replay it sequentially (internal/trace.ReplayCache does) — a diverging
// access stream yields well-defined but no longer optimal choices.
type beladyPolicy struct {
	lru lruPolicy // recency fallback + deterministic resident iteration

	future bool
	// pos holds, per entry id, the ascending positions at which the primed
	// trace accesses it; ptr[id] is the first index in pos[id] not yet
	// known to be in the past.
	pos map[string][]int
	ptr map[string]int
	ids map[Handle]string
	// cursor counts accesses consumed so far: the next access the trace
	// will see has position cursor.
	cursor int
}

// NewBelady returns the offline-optimal eviction oracle primed with the
// full future access sequence: entry IDs (Config.KeyID of each key) in
// arrival order. A nil or empty future returns the unprimed oracle, which
// behaves as LRU.
func NewBelady(future []string) EvictionPolicy {
	p := &beladyPolicy{
		lru: *newLRUPolicy(),
		ids: make(map[Handle]string),
	}
	if len(future) > 0 {
		p.future = true
		p.pos = make(map[string][]int)
		p.ptr = make(map[string]int)
		for i, id := range future {
			p.pos[id] = append(p.pos[id], i)
		}
	}
	return p
}

func (p *beladyPolicy) Name() string { return Belady }

func (p *beladyPolicy) Admit(h Handle, id string, cost int64) {
	p.lru.Admit(h, id, cost)
	p.ids[h] = id
	p.cursor++
}

func (p *beladyPolicy) Touch(h Handle) {
	p.lru.Touch(h)
	p.cursor++
}

// nextUse returns the primed-trace position of id's next access at or
// after the cursor, or ok=false when id is never accessed again.
func (p *beladyPolicy) nextUse(id string) (int, bool) {
	positions := p.pos[id]
	i := p.ptr[id]
	for i < len(positions) && positions[i] < p.cursor {
		i++
	}
	p.ptr[id] = i
	if i == len(positions) {
		return 0, false
	}
	return positions[i], true
}

func (p *beladyPolicy) Victim() (Handle, bool) {
	if !p.future {
		return p.lru.Victim()
	}
	// Walk residents from the LRU end so ties (and the "never used again"
	// class) break toward the least recently used, deterministically.
	var (
		best     *recencyNode
		bestNext int
		found    bool
	)
	for n := p.lru.list.tail; n != nil; n = n.prev {
		next, used := p.nextUse(p.ids[n.h])
		if !used {
			return n.h, true
		}
		if !found || next > bestNext {
			best, bestNext, found = n, next, true
		}
	}
	if !found {
		return 0, false
	}
	return best.h, true
}

func (p *beladyPolicy) Remove(h Handle) {
	p.lru.Remove(h)
	delete(p.ids, h)
}
