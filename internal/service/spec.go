package service

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// WorkloadSpec is the unified workload envelope every endpoint resolves
// through: one description of (model graph, platform, policy, simulation
// knobs) shared by /v1/schedule, /v1/simulate and /v1/batch. Zero fields
// take documented defaults; see docs/service.md for the canonical form.
//
// The fields fall into three groups:
//
//   - Graph-shaping: Model, Mode, Workers, PS, BatchFactor, Iterations,
//     SharedPSNIC — together they determine the execution graph. Batch
//     variants may NOT change these (a batch amortizes one graph).
//   - Cost model: Env plus optional heterogeneous Overrides.
//   - Run knobs: Policy, Warmup, Seed, the simulate protocol
//     (WarmupIterations, MeasureIterations, Jitter, ReorderProb) and
//     transient Stragglers/Contention windows.
//
// /v1/schedule ignores the simulate-protocol and window fields but still
// validates them — there is exactly one validation path.
type WorkloadSpec struct {
	// Model is a Table 1 model name, e.g. "ResNet-50 v2". Required.
	Model string `json:"model"`
	// Mode is "training" (default) or "inference".
	Mode string `json:"mode,omitempty"`
	// Workers / PS size the cluster (both default to 1).
	Workers int `json:"workers,omitempty"`
	PS      int `json:"ps,omitempty"`
	// BatchFactor scales the model's standard batch size (0 = 1).
	BatchFactor float64 `json:"batch_factor,omitempty"`
	// Iterations chains back-to-back iterations into one graph (0 or 1 =
	// single iteration).
	Iterations int `json:"iterations,omitempty"`
	// SharedPSNIC selects the shared-PS-NIC network model.
	SharedPSNIC bool `json:"shared_ps_nic,omitempty"`
	// Env is the platform profile: "envG" (default) or "envC".
	Env string `json:"env,omitempty"`
	// Overrides layers heterogeneous per-device / per-channel costs over
	// Env; nil or empty is the homogeneous model, bit-identically.
	Overrides *PlatformOverrides `json:"overrides,omitempty"`
	// Policy is a registered scheduling policy name, or "none" for the
	// unscheduled baseline. Default "tic".
	Policy string `json:"policy,omitempty"`
	// Warmup is the traced-warmup iteration count for oracle policies
	// (tac); 0 selects the library default. Every other policy ignores
	// it, and it does not enter their cache keys.
	Warmup int `json:"warmup,omitempty"`
	// Seed feeds every random choice derived from this request.
	Seed int64 `json:"seed,omitempty"`

	// WarmupIterations / MeasureIterations set the simulate experiment
	// protocol (defaults: the paper's 2 warmup / 10 measured).
	WarmupIterations  int `json:"warmup_iterations,omitempty"`
	MeasureIterations int `json:"measure_iterations,omitempty"`
	// Jitter is the relative runtime noise; omitted or null selects the
	// platform default, 0 disables noise.
	Jitter *float64 `json:"jitter,omitempty"`
	// ReorderProb injects gRPC-style priority inversions.
	ReorderProb float64 `json:"reorder_prob,omitempty"`
	// Stragglers transiently slow one worker's compute for a window of
	// iterations; Contention slows every transfer for a window.
	Stragglers []StragglerSpec  `json:"stragglers,omitempty"`
	Contention []ContentionSpec `json:"contention,omitempty"`
	// Membership scripts deterministic fleet changes over the experiment
	// protocol (worker joins/leaves/fails, PS shard fail/recover). The
	// event sequence is validated up front — an invalid grammar is a 400,
	// and events referencing a departed worker are a departed_worker error
	// — and its content digest is folded into every cache key and response,
	// so a membership change can never be served a stale schedule.
	Membership []MembershipEventSpec `json:"membership,omitempty"`
}

// PlatformOverrides is the wire form of a heterogeneous cost model: named
// devices run scaled profiles, named channels carry their own network
// costs. Keys are validated against the cluster's actual device tags
// ("worker:0", "ps:1") and channel resources ("worker:0/net:ps:1", or
// "ps:0/net" in shared-NIC mode) — a typo is a 400, not a silent no-op.
type PlatformOverrides struct {
	Devices  map[string]DeviceOverride  `json:"devices,omitempty"`
	Channels map[string]ChannelOverride `json:"channels,omitempty"`
}

// DeviceOverride scales one device's profile relative to the base env.
type DeviceOverride struct {
	// SlowCompute makes the device's compute k× slower (0 or 1 = unchanged;
	// values in (0,1) model a faster device).
	SlowCompute float64 `json:"slow_compute,omitempty"`
	// SlowNet makes the device's network k× slower, same semantics.
	SlowNet float64 `json:"slow_net,omitempty"`
}

// ChannelOverride replaces one channel's network cost model.
type ChannelOverride struct {
	// Bandwidth is the channel throughput in bytes/s (0 = inherit).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Latency is the fixed per-transfer setup cost in seconds (0 = inherit).
	Latency float64 `json:"latency,omitempty"`
}

// empty reports whether the overrides carry no entries at all; an empty
// overrides object resolves exactly like no overrides, keeping the
// homogeneous digest (and therefore cache slot) unchanged.
func (o *PlatformOverrides) empty() bool {
	return o == nil || (len(o.Devices) == 0 && len(o.Channels) == 0)
}

// StragglerSpec is the wire form of cluster.Straggler: worker Worker's
// compute is Factor× slower during iterations [From, Until) of the
// experiment protocol (warmup included; Until <= From = open-ended).
type StragglerSpec struct {
	Worker int     `json:"worker"`
	Factor float64 `json:"factor"`
	From   int     `json:"from,omitempty"`
	Until  int     `json:"until,omitempty"`
}

// ContentionSpec is the wire form of cluster.Contention: every transfer is
// Factor× slower during iterations [From, Until).
type ContentionSpec struct {
	Factor float64 `json:"factor"`
	From   int     `json:"from,omitempty"`
	Until  int     `json:"until,omitempty"`
}

// MembershipEventSpec is the wire form of cluster.MembershipEvent: one
// scripted fleet change. Kind is one of worker_join, worker_leave,
// worker_fail, ps_shard_fail, ps_recover; the event grammar (documented in
// docs/churn-scenarios.md) is validated by cluster.NewTimeline.
type MembershipEventSpec struct {
	Kind      string `json:"kind"`
	Worker    int    `json:"worker,omitempty"`
	PS        int    `json:"ps,omitempty"`
	Iteration int    `json:"iteration,omitempty"`
	// FailPoint is the fraction of the failed iteration lost to a
	// worker_fail / ps_shard_fail, in (0, 1]; 0 selects the default 0.5.
	FailPoint float64 `json:"fail_point,omitempty"`
	// DegradedFactor slows ops touching a failed shard's parameters until
	// recovery (>= 1); 0 selects the default 2.
	DegradedFactor float64 `json:"degraded_factor,omitempty"`
}

// clusterKey is the comparable cluster-cache key derived from a resolved
// spec. cluster.Config itself can no longer key the cache: with
// heterogeneous overrides it carries a *timing.PlatformMap, which would
// compare by pointer and split semantically identical requests across
// slots. The key carries the cost model by content digest instead, and
// the graph shape as built: batch is the effective batch (0 for the
// model's standard batch) and iterations is 0 for a single iteration.
type clusterKey struct {
	model          string
	mode           string
	workers, ps    int
	batch          int
	iterations     int
	sharedPSNIC    bool
	platformDigest string
	// membershipDigest is cluster.EventsDigest of the spec's membership
	// events ("" when there are none, keeping churn-free keys identical to
	// their pre-membership form). Folding it in here means a membership
	// change moves the request to a fresh cache slot — the cache can never
	// serve a schedule computed for a different fleet timeline.
	membershipDigest string
}

// resolved is a validated, normalized spec: the exact cluster build
// configuration, its cache key, and every run knob the handlers consume.
type resolved struct {
	// spec is the workload as requested — kept so a cached entry can be
	// re-described on the wire (fleet drain streams specs, not payloads,
	// and the receiver recomputes deterministically).
	spec   WorkloadSpec
	key    clusterKey
	cfg    cluster.Config
	mode   string
	env    string
	policy string
	// warmup is spec.Warmup for policies that read it (sched.OracleOrderer)
	// and 0 for every other policy.
	warmup int
	seed   int64
	// sharedSchedule reports that the policy gives one schedule per cluster
	// whatever the seed: none and the sched.PartitionOnly policies.
	sharedSchedule bool

	// Simulate protocol, normalized (jitter -1 = platform default).
	warmupIters  int
	measureIters int
	jitter       float64
	reorderProb  float64
	stragglers   []cluster.Straggler
	contention   []cluster.Contention
	events       []cluster.MembershipEvent
	// membershipDigest is cluster.EventsDigest(events) ("" without events).
	membershipDigest string
}

// resolve validates the spec and normalizes it into a build configuration
// plus run knobs — the single validation/digest path behind every endpoint.
// All failures are coded client errors.
func (spec WorkloadSpec) resolve() (resolved, error) {
	var r resolved
	ms, ok := model.ByName(spec.Model)
	if !ok {
		return r, codeErr(http.StatusBadRequest, CodeUnknownModel,
			"unknown model %q (GET /v1/policies lists policies; see Table 1 for models)", spec.Model)
	}
	mode, err := model.ParseMode(spec.Mode)
	if err != nil {
		return r, codeErr(http.StatusBadRequest, CodeUnknownMode, "%v", err)
	}
	r.mode = mode.String()
	platform, err := timing.EnvByName(spec.Env)
	if err != nil {
		return r, codeErr(http.StatusBadRequest, CodeUnknownEnv, "%v", err)
	}
	r.env = platform.Name
	r.policy = strings.ToLower(strings.TrimSpace(spec.Policy))
	if r.policy == "" {
		r.policy = sched.TIC
	}
	// Only oracle policies (tac) read warmup; zeroing it for every other
	// policy keeps requests that differ only in an ignored warmup in one
	// cache slot and one batch computation.
	readsWarmup := false
	r.sharedSchedule = r.policy == sched.None
	if r.policy != sched.None {
		p, err := sched.New(r.policy, 0)
		if err != nil {
			return r, codeErr(http.StatusBadRequest, CodeUnknownPolicy, "%v", err)
		}
		_, readsWarmup = p.(sched.OracleOrderer)
		_, r.sharedSchedule = p.(sched.PartitionOnly)
	}
	workers, ps := spec.Workers, spec.PS
	if workers == 0 {
		workers = 1
	}
	if ps == 0 {
		ps = 1
	}
	if workers < 1 || ps < 1 {
		return r, badRequest("workers and ps must be >= 1 (got %d, %d)", spec.Workers, spec.PS)
	}
	if spec.BatchFactor < 0 {
		return r, badRequest("batch_factor must be >= 0 (got %g)", spec.BatchFactor)
	}
	if spec.Iterations < 0 || spec.Iterations > 64 {
		return r, badRequest("iterations must be in [0, 64] (got %d)", spec.Iterations)
	}
	if spec.Warmup < 0 || spec.Warmup > 100 {
		return r, badRequest("warmup must be in [0, 100] (got %d)", spec.Warmup)
	}
	const maxDevices = 64
	if workers > maxDevices || ps > maxDevices {
		return r, badRequest("cluster too large: workers and ps are capped at %d each", maxDevices)
	}

	// Simulate protocol (validated on every endpoint, consumed by
	// simulate/batch).
	r.warmupIters, r.measureIters = spec.WarmupIterations, spec.MeasureIterations
	if r.warmupIters <= 0 {
		r.warmupIters = cluster.DefaultExperiment.Warmup
	}
	if r.measureIters <= 0 {
		r.measureIters = cluster.DefaultExperiment.Measure
	}
	if r.measureIters > 1000 || r.warmupIters > 1000 {
		return r, badRequest("iteration counts are capped at 1000")
	}
	if spec.ReorderProb < 0 || spec.ReorderProb > 1 {
		return r, badRequest("reorder_prob must be in [0, 1]")
	}
	r.reorderProb = posZero(spec.ReorderProb)
	r.jitter = -1 // platform default
	if spec.Jitter != nil {
		if *spec.Jitter < 0 || *spec.Jitter > 1 {
			return r, badRequest("jitter must be in [0, 1]")
		}
		r.jitter = posZero(*spec.Jitter)
	}
	for i, st := range spec.Stragglers {
		if st.Worker < 0 || st.Worker >= workers {
			return r, badRequest("stragglers[%d].worker %d out of range [0, %d)", i, st.Worker, workers)
		}
		if st.Factor <= 0 {
			return r, badRequest("stragglers[%d].factor must be > 0 (got %g)", i, st.Factor)
		}
		r.stragglers = append(r.stragglers, cluster.Straggler{Worker: st.Worker, Factor: st.Factor, From: st.From, Until: st.Until})
	}
	for i, cn := range spec.Contention {
		if cn.Factor <= 0 {
			return r, badRequest("contention[%d].factor must be > 0 (got %g)", i, cn.Factor)
		}
		r.contention = append(r.contention, cluster.Contention{Factor: cn.Factor, From: cn.From, Until: cn.Until})
	}
	for _, me := range spec.Membership {
		r.events = append(r.events, cluster.MembershipEvent{
			Kind:           cluster.EventKind(strings.ToLower(strings.TrimSpace(me.Kind))),
			Worker:         me.Worker,
			PS:             me.PS,
			Iteration:      me.Iteration,
			FailPoint:      posZero(me.FailPoint),
			DegradedFactor: posZero(me.DegradedFactor),
		})
	}
	if len(r.events) > 0 {
		tl, err := cluster.NewTimeline(workers, ps, r.events)
		if err != nil {
			if errors.Is(err, cluster.ErrDeparted) {
				return r, codeErr(http.StatusBadRequest, CodeDepartedWorker, "membership: %v", err)
			}
			return r, badRequest("membership: %v", err)
		}
		// A straggler window that never overlaps its worker's active
		// iterations references a departed worker: the spec asks to slow a
		// machine that is not in the fleet when the window is open.
		total := r.warmupIters + r.measureIters
		for i, st := range r.stragglers {
			from, until := st.From, st.Until
			if from < 0 {
				from = 0
			}
			if until <= st.From || until > total {
				until = total
			}
			overlaps := false
			for it := from; it < until; it++ {
				if tl.ActiveAt(st.Worker, it) {
					overlaps = true
					break
				}
			}
			if !overlaps {
				return r, codeErr(http.StatusBadRequest, CodeDepartedWorker,
					"stragglers[%d] targets worker %d, which is never active during the window", i, st.Worker)
			}
		}
		r.membershipDigest = cluster.EventsDigest(r.events)
	}

	// Cost model: bare platform, or a PlatformMap layered over it.
	var platforms *timing.PlatformMap
	platformDigest := core.PlatformDigest(platform)
	if !spec.Overrides.empty() {
		platforms = timing.NewPlatformMap(platform)
		for dev, d := range spec.Overrides.Devices {
			if d.SlowCompute < 0 || d.SlowNet < 0 {
				return r, badRequest("device override %q: slow_compute and slow_net must be >= 0", dev)
			}
			platforms.SetDevice(dev, platform.SlowedCompute(d.SlowCompute).SlowedNet(d.SlowNet))
		}
		for res, cc := range spec.Overrides.Channels {
			if cc.Bandwidth < 0 || cc.Latency < 0 {
				return r, badRequest("channel override %q: bandwidth and latency must be >= 0", res)
			}
			platforms.SetChannel(res, timing.ChannelCost{Bandwidth: posZero(cc.Bandwidth), Latency: posZero(cc.Latency)})
		}
		platformDigest = core.PlatformMapDigest(platforms)
	}

	batchFactor := posZero(spec.BatchFactor)
	r.cfg = cluster.Config{
		Model:       ms,
		Mode:        mode,
		Workers:     workers,
		PS:          ps,
		BatchFactor: batchFactor,
		Platform:    platform,
		Platforms:   platforms,
		Iterations:  spec.Iterations,
		SharedPSNIC: spec.SharedPSNIC,
	}
	if r.cfg.ValidateBatch() != nil {
		return r, badRequest("batch_factor %g asks for more than %d samples per worker (standard batch %d)",
			spec.BatchFactor, cluster.MaxBatch, ms.Batch)
	}
	if platforms != nil {
		// Surface override-key typos as client errors here, before any
		// cache or build work runs on this spec's behalf.
		if err := r.cfg.ValidateOverrides(); err != nil {
			return r, badRequest("%v", err)
		}
	}
	// Key the graph, not its phrasing: a factor by the batch it builds,
	// with the standard batch keyed 0 as when the field is omitted, and
	// iterations 0 and 1, both one iteration, alike.
	batch := r.cfg.Batch()
	if batch == ms.Batch {
		batch = 0
	}
	iterations := spec.Iterations
	if iterations == 1 {
		iterations = 0
	}
	r.spec = spec
	if readsWarmup {
		r.warmup = spec.Warmup
	}
	r.seed = spec.Seed
	r.key = clusterKey{
		model:            ms.Name,
		mode:             r.mode,
		workers:          workers,
		ps:               ps,
		batch:            batch,
		iterations:       iterations,
		sharedPSNIC:      spec.SharedPSNIC,
		platformDigest:   platformDigest,
		membershipDigest: r.membershipDigest,
	}
	return r, nil
}

// posZero maps -0 to +0. JSON's "-0" decodes to negative zero, which
// computes like zero but prints and digests differently; left alone it
// would split one semantic request across cache slots and fleet owners.
func posZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// fleetKey is the consistent-hash routing key: the clusterKey composite —
// the graph-shaping tuple (which determines core.GraphDigest injectively,
// so a non-owner never parses a graph just to route), the platform digest
// (core.PlatformDigest / PlatformMapDigest) and the membership digest
// (cluster.EventsDigest). Policy, warmup and seed are deliberately absent:
// every run knob over one workload routes to the same home node, so that
// node's cache amortizes the shared cluster build and the fleet-wide hit
// rate approaches single-node. clusterKey is a flat struct of comparable
// scalars, so %v renders it stably.
func (r resolved) fleetKey() string {
	return fmt.Sprintf("%v", r.key)
}

// scenarioKey identifies everything about a resolved spec except the
// scheduling policy (and its warmup knob): variants sharing a scenarioKey
// ask "which policy wins under these exact conditions?" — the grouping the
// batch summary ranks best policies within.
// (r.key carries the membership digest, so variants that differ only in
// membership land in different scenarios.)
func (r resolved) scenarioKey() string {
	return fmt.Sprintf("%v|seed=%d|j=%g|rp=%g|wi=%d|mi=%d|st=%v|cn=%v",
		r.key, r.seed, r.jitter, r.reorderProb, r.warmupIters, r.measureIters, r.stragglers, r.contention)
}

// runKey identifies a resolved spec completely; batch uses it to dedupe
// identical variants onto one computation.
func (r resolved) runKey() string {
	return r.scenarioKey() + fmt.Sprintf("|pol=%s|wu=%d", r.policy, r.warmup)
}
