package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WorkloadVersion is the trace format version this package reads and
// writes. Readers reject other versions outright — the format is versioned
// precisely so a future change is a loud error, not a silent misparse.
const WorkloadVersion = 1

// Workload is a replayable request trace: a named, versioned sequence of
// schedule-request arrivals. Traces are deterministic artifacts — generated
// from a seed (Generate), committed as testdata, and replayed either
// offline against a bare cache (ReplayCache) or against a live tictacd
// (loadgen.Run).
type Workload struct {
	// Version is the trace format version; must equal WorkloadVersion.
	Version int `json:"version"`
	// Name labels the trace in reports ("zipf-hot", "diurnal", ...).
	Name string `json:"name"`
	// Generator records the GeneratorSpec kind that produced the trace,
	// empty for hand-written traces.
	Generator string `json:"generator,omitempty"`
	// Seed is the generator seed the trace was derived from.
	Seed int64 `json:"seed,omitempty"`
	// Events are the arrivals in nondecreasing time order.
	Events []Event `json:"events"`
}

// Event is one request arrival. The workload-generator fields (Model,
// Workers, PS, Policy, Seed) identify the schedule being requested — two
// events with equal Key() hit the same schedule-cache slot.
type Event struct {
	// T is the arrival time in seconds from trace start; nondecreasing.
	T float64 `json:"t"`
	// Model is a Table 1 model name.
	Model string `json:"model"`
	// Workers and PS size the requested cluster (0 means 1).
	Workers int `json:"workers,omitempty"`
	PS      int `json:"ps,omitempty"`
	// Policy is the scheduling (not eviction) policy requested.
	Policy string `json:"policy,omitempty"`
	// Seed is the request seed.
	Seed int64 `json:"seed,omitempty"`
	// Cost is the policy-visible response-size estimate in bytes, fixed per
	// distinct Key by the generator. Size-aware eviction ranks by it.
	Cost int64 `json:"cost,omitempty"`
}

// Key is the event's canonical cache identity: events with equal Key
// resolve to the same schedule-cache entry on the server, so offline
// replay and the live service agree on what "the same request" means.
func (e Event) Key() string {
	w, ps := e.Workers, e.PS
	if w == 0 {
		w = 1
	}
	if ps == 0 {
		ps = 1
	}
	return fmt.Sprintf("%s|w%d|ps%d|%s|s%d", e.Model, w, ps, e.Policy, e.Seed)
}

// Validate checks the structural invariants every reader relies on:
// the exact format version, at least one event, nonnegative nondecreasing
// timestamps, a model on every event, and a consistent cost per key.
func (w *Workload) Validate() error {
	if w.Version != WorkloadVersion {
		return fmt.Errorf("trace: workload version %d, want %d", w.Version, WorkloadVersion)
	}
	if len(w.Events) == 0 {
		return fmt.Errorf("trace: workload %q has no events", w.Name)
	}
	costs := make(map[string]int64)
	prev := 0.0
	for i, e := range w.Events {
		if e.T < prev {
			return fmt.Errorf("trace: event %d at t=%g before predecessor t=%g", i, e.T, prev)
		}
		prev = e.T
		if e.Model == "" {
			return fmt.Errorf("trace: event %d has no model", i)
		}
		if e.Cost < 0 {
			return fmt.Errorf("trace: event %d has negative cost %d", i, e.Cost)
		}
		k := e.Key()
		if c, seen := costs[k]; seen && c != e.Cost {
			return fmt.Errorf("trace: key %q has inconsistent costs %d and %d", k, c, e.Cost)
		}
		costs[k] = e.Cost
	}
	return nil
}

// Keys returns the trace's access sequence as canonical keys, in arrival
// order — the future an offline-optimal eviction oracle is primed with.
func (w *Workload) Keys() []string {
	keys := make([]string, len(w.Events))
	for i, e := range w.Events {
		keys[i] = e.Key()
	}
	return keys
}

// DistinctKeys returns the number of distinct canonical keys in the trace.
func (w *Workload) DistinctKeys() int {
	seen := make(map[string]struct{}, len(w.Events))
	for _, e := range w.Events {
		seen[e.Key()] = struct{}{}
	}
	return len(seen)
}

// Costs returns the per-key cost map (canonical key → policy-visible cost).
func (w *Workload) Costs() map[string]int64 {
	costs := make(map[string]int64)
	for _, e := range w.Events {
		costs[e.Key()] = e.Cost
	}
	return costs
}

// Models returns the distinct model names the trace requests, sorted.
func (w *Workload) Models() []string {
	set := map[string]bool{}
	for _, e := range w.Events {
		set[e.Model] = true
	}
	return sortedKeys(set)
}

// WriteWorkload writes the workload as indented JSON (the committed-
// testdata form: stable, diffable).
func WriteWorkload(out io.Writer, w *Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}

// ReadWorkload parses and validates a workload trace.
func ReadWorkload(in io.Reader) (*Workload, error) {
	var w Workload
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("trace: parse workload: %w", err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// ReadWorkloadFile reads a workload trace from disk.
func ReadWorkloadFile(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w, err := ReadWorkload(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return w, nil
}

// WriteWorkloadFile writes a workload trace to disk.
func WriteWorkloadFile(path string, w *Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := WriteWorkload(f, w); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
