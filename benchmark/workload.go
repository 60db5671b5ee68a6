package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"tictac/internal/model"
	"tictac/internal/service"
)

const (
	pathSchedule = "/v1/schedule"
	pathSimulate = "/v1/simulate"
	pathBatch    = "/v1/batch"
)

// workloadNames lists every workload in the order `--workload all` runs them.
var workloadNames = []string{"schedule-hot", "fleet-forward", "schedule-zipf", "whatif"}

// request is one distinct HTTP request a workload can send.
type request struct {
	path string
	body []byte
	// ops is the work the request stands for: one schedule or simulation,
	// or one simulation per variant of a batch.
	ops int
}

// workload is one traffic mix: every distinct request it can send, the
// set-up pass that warms the daemons, and the seeded order of the measured
// requests. Only the generated requests reach the daemon; the seed never
// does except as request content.
type workload struct {
	name  string
	nodes int // daemons to start; the load goes to the first
	reqs  []request
	// warm lists the requests (indices into reqs) of the set-up pass.
	warm []int
	// primary is the endpoint whose round trips the latency metrics read.
	primary string

	mu   sync.Mutex
	draw func() int
}

// next returns the index of the next measured request. Safe for concurrent
// use: the sequence is fixed by the seed, whichever client takes each draw.
func (w *workload) next() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draw()
}

// newWorkload generates the named workload from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "schedule-hot", "fleet-forward":
		return hotWorkload(name, seed, rng), nil
	case "schedule-zipf":
		return zipfWorkload(seed, rng), nil
	case "whatif":
		return whatifWorkload(seed, rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// hotPolicies are the policies of the 30 hot configurations.
var hotPolicies = []string{"tic", "critical-path", "fifo"}

// hotWorkload is schedule-hot and fleet-forward: 30 /v1/schedule configs
// (10 Table 1 models × 3 policies, 2 workers, 1 PS) drawn uniformly. After
// the set-up pass every request is a cache hit.
func hotWorkload(name string, seed int64, rng *rand.Rand) *workload {
	w := &workload{name: name, nodes: 1, primary: pathSchedule}
	if name == "fleet-forward" {
		w.nodes = 3
	}
	for _, m := range model.Names() {
		for _, p := range hotPolicies {
			w.add(pathSchedule, service.WorkloadSpec{Model: m, Policy: p, Workers: 2, PS: 1, Seed: seed}, 1)
		}
	}
	for i := range w.reqs {
		w.warm = append(w.warm, i)
	}
	n := len(w.reqs)
	w.draw = func() int { return rng.Intn(n) }
	return w
}

// Zipf population: every combination below, drawn with Zipf(s) popularity
// over a ranking. The working set is far larger than the daemon's 256-entry
// schedule cache, so about a third of the requests miss.
//
// A shape is a (workers, PS, policy, model) tuple, and its variants are its
// request seeds. Rank r belongs to shape r mod shapes, the shapes taken
// model by model, so the ten most popular keys are the ten models under tic
// at 1 worker and 1 PS for every seed. The seed picks which variant of its
// shape each rank holds. The head of a Zipf ranking carries much of the
// traffic, and with a freely shuffled ranking the cost of the few keys that
// landed there moved every metric with the seed.
var (
	zipfPolicies = []string{"tic", "critical-path", "fifo", "none"}
	zipfWorkers  = []int{1, 2, 3, 4}
	zipfPS       = []int{1, 2}
	zipfSeeds    = 12
)

const (
	zipfS    = 1.1
	zipfWarm = 1500 // requests in the set-up pass
)

// zipfWorkload is schedule-zipf, the cache-miss path.
func zipfWorkload(seed int64, rng *rand.Rand) *workload {
	w := &workload{name: "schedule-zipf", nodes: 1, primary: pathSchedule}
	for _, workers := range zipfWorkers {
		for _, ps := range zipfPS {
			for _, p := range zipfPolicies {
				for _, m := range model.Names() {
					for k := 0; k < zipfSeeds; k++ {
						spec := service.WorkloadSpec{Model: m, Policy: p, Workers: workers, PS: ps, Seed: seed*100 + int64(k)}
						w.add(pathSchedule, spec, 1)
					}
				}
			}
		}
	}
	shapes := len(w.reqs) / zipfSeeds
	rank := make([]int, len(w.reqs))
	for s := 0; s < shapes; s++ {
		for j, v := range rng.Perm(zipfSeeds) {
			rank[j*shapes+s] = s*zipfSeeds + v
		}
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(w.reqs)-1))
	w.draw = func() int { return rank[z.Uint64()] }
	for i := 0; i < zipfWarm; i++ {
		w.warm = append(w.warm, w.draw())
	}
	return w
}

// What-if mix: simulate knobs, and the batch shape (3 policies × 6 variants).
var (
	whatifPolicies = []string{"tic", "critical-path", "none"}
	whatifJitter   = []float64{0, 0.05, 0.1}
	whatifReorder  = []float64{0, 0.05, 0.2}
)

const (
	whatifWorkers   = 4
	whatifPS        = 2
	whatifBatchGap  = 10 // simulates between two batches
	whatifVariantIt = 4  // measure_iterations of every batch variant
)

// whatifWorkload is the capacity-planning path: /v1/simulate requests with a
// /v1/batch after every tenth. The set-up pass warms the 30 base schedules
// (10 models × 3 policies) that every simulate reuses.
//
// A simulation's cost depends mostly on its model, and a run sends only a
// few hundred simulates and a few dozen batches, so the models are dealt
// from a deck: simulates come in rounds of ten, and batches too, each round
// covering every model once in a seeded order. The seed still picks each
// simulate's policy, jitter and reorder probability.
func whatifWorkload(seed int64, rng *rand.Rand) *workload {
	w := &workload{name: "whatif", nodes: 1, primary: pathSimulate}
	models := model.Names()
	var sims []int // perModel simulates of each model in turn
	for _, m := range models {
		for _, p := range whatifPolicies {
			for _, j := range whatifJitter {
				for _, rp := range whatifReorder {
					spec := service.WorkloadSpec{Model: m, Policy: p, Workers: whatifWorkers, PS: whatifPS, Seed: seed, Jitter: &j, ReorderProb: rp}
					sims = append(sims, w.add(pathSimulate, spec, 1))
				}
			}
		}
	}
	var batches []int
	for _, m := range models {
		base := service.WorkloadSpec{Model: m, Workers: whatifWorkers, PS: whatifPS, Seed: seed, MeasureIterations: whatifVariantIt}
		variants := batchVariants(seed)
		body, _ := json.Marshal(batchEnvelope{Workload: base, Variants: variants})
		w.reqs = append(w.reqs, request{path: pathBatch, body: body, ops: len(variants)})
		batches = append(batches, len(w.reqs)-1)
	}
	for _, m := range models {
		for _, p := range whatifPolicies {
			w.warm = append(w.warm, w.add(pathSchedule, service.WorkloadSpec{Model: m, Policy: p, Workers: whatifWorkers, PS: whatifPS, Seed: seed}, 1))
		}
	}
	perModel := len(sims) / len(models)
	simModels := &deck{rng: rng, n: len(models)}
	batchModels := &deck{rng: rng, n: len(models)}
	k := 0
	w.draw = func() int {
		k++
		if k%(whatifBatchGap+1) == 0 {
			return batches[batchModels.next()]
		}
		return sims[simModels.next()*perModel+rng.Intn(perModel)]
	}
	return w
}

// deck deals 0..n-1 in a seeded order and shuffles again when it runs out,
// so each round of n deals holds every value once.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// batchVariants is the what-if batch: for each policy, four seeds, one
// transient straggler and one permanently slow worker.
func batchVariants(seed int64) []service.BatchVariant {
	var vs []service.BatchVariant
	for _, p := range whatifPolicies {
		for k := int64(1); k <= 4; k++ {
			s := seed + k
			vs = append(vs, service.BatchVariant{Label: fmt.Sprintf("%s/seed%d", p, k), Policy: &p, Seed: &s})
		}
		stragglers := []service.StragglerSpec{{Worker: 1, Factor: 2, From: 1, Until: 3}}
		vs = append(vs, service.BatchVariant{Label: p + "/straggler", Policy: &p, Stragglers: &stragglers})
		slow := &service.PlatformOverrides{Devices: map[string]service.DeviceOverride{"worker:3": {SlowCompute: 2}}}
		vs = append(vs, service.BatchVariant{Label: p + "/slow-worker", Policy: &p, Overrides: slow})
	}
	return vs
}

// specEnvelope and batchEnvelope are the canonical request bodies.
type specEnvelope struct {
	Workload service.WorkloadSpec `json:"workload"`
}

type batchEnvelope struct {
	Workload service.WorkloadSpec   `json:"workload"`
	Variants []service.BatchVariant `json:"variants"`
}

// add appends a schedule or simulate request and returns its index.
func (w *workload) add(path string, spec service.WorkloadSpec, ops int) int {
	body, _ := json.Marshal(specEnvelope{Workload: spec}) // plain structs always marshal
	w.reqs = append(w.reqs, request{path: path, body: body, ops: ops})
	return len(w.reqs) - 1
}
