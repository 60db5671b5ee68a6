package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"tictac/internal/fleet"
)

// viaHeader names the member that actually served a forwarded response —
// observability only; response bodies stay byte-identical wherever they
// were computed.
const viaHeader = "X-Tictac-Via"

// warmChunk is how many specs one drain POST carries; specs are a few
// hundred bytes, so a chunk stays far under the receiver's 1 MiB body cap.
const warmChunk = 100

// FleetEnabled reports whether the service runs in fleet mode.
func (s *Service) FleetEnabled() bool { return s.fleet != nil }

// Draining reports whether Drain has begun on this node.
func (s *Service) Draining() bool { return s.draining.Load() }

// maybeForward is the ownership check in front of every POST workload
// endpoint. If fleet mode is on and the resolved spec's routing key hashes
// to another member, the raw request body is proxied to the owner (with one
// hedged retry to the next replica) and the upstream response is relayed
// verbatim; handled reports that the response has been written.
//
// A request is always served locally when: fleet mode is off; the request
// was already forwarded once (fleet.ForwardedHeader — guarantees loop
// freedom, and makes a membership disagreement cost one extra hop instead
// of an error, since the determinism contract lets any node compute any
// answer); this node is draining; this node owns the key; the answer that
// came back is too long to relay (fleet.ErrTooLarge); or every remote
// target in the key's replica chain failed but this node is itself in the
// chain. Only when the whole remote chain fails and this node is NOT a
// replica does the client see 503 fleet_unavailable.
func (s *Service) maybeForward(w http.ResponseWriter, r *http.Request, body []byte, res resolved) (handled bool, err error) {
	if s.fleet == nil {
		return false, nil
	}
	if r.Header.Get(fleet.ForwardedHeader) != "" {
		s.fleet.ReportForwardedIn()
		return false, nil
	}
	if s.draining.Load() {
		return false, nil
	}
	self := s.fleet.Self().ID
	targets := s.fleet.Targets(res.fleetKey(), 2)
	if len(targets) == 0 || targets[0].ID == self {
		return false, nil
	}
	selfIsReplica := false
	remote := make([]fleet.Member, 0, len(targets))
	for _, m := range targets {
		if m.ID == self {
			selfIsReplica = true
		} else {
			remote = append(remote, m)
		}
	}
	fres, ferr := s.forwarder.Forward(r.Context(), r.Method, r.URL.Path, body, r.Header.Get("Content-Type"), remote)
	if ferr != nil {
		// Serve it ourselves if we are the key's replica, or if the
		// owner's answer was too long to relay: any node computes the same
		// bytes.
		if selfIsReplica || errors.Is(ferr, fleet.ErrTooLarge) {
			return false, nil
		}
		return true, codeErr(http.StatusServiceUnavailable, CodeFleetUnavailable,
			"owner and replica for this workload are unreachable: %v", ferr)
	}
	if fres.ContentType != "" {
		w.Header().Set("Content-Type", fres.ContentType)
	}
	w.Header().Set(viaHeader, fres.Via)
	w.WriteHeader(fres.Status)
	w.Write(fres.Body)
	return true, nil
}

func (s *Service) handleFleet(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, s.fleet.View())
	return nil
}

// WarmRequest is the body of POST /v1/fleet/warm: workload specs a draining
// peer streams over so this node can precompute (and thereby cache) their
// schedules. Entries are recomputed, not copied — determinism makes the
// recomputed bytes identical, and it keeps cache payloads trusted.
type WarmRequest struct {
	Workloads []WorkloadSpec `json:"workloads"`
}

// WarmResponse reports how many streamed specs were cached.
type WarmResponse struct {
	Warmed int `json:"warmed"`
	Failed int `json:"failed"`
}

func (s *Service) handleWarm(w http.ResponseWriter, r *http.Request) error {
	var req WarmRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	var resp WarmResponse
	for _, spec := range req.Workloads {
		res, err := spec.resolve()
		if err != nil {
			resp.Failed++
			continue
		}
		if _, _, _, err := s.schedule(res); err != nil {
			resp.Failed++
			continue
		}
		resp.Warmed++
	}
	s.fleet.ReportWarmed(resp.Warmed)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// DrainReport is the body of POST /v1/drain: where the node's resident
// schedule entries went.
type DrainReport struct {
	// Node is the draining member; Entries is its resident schedule-entry
	// count at drain start; Streamed counts entries accepted by peers.
	Node     string `json:"node"`
	Entries  int    `json:"entries"`
	Streamed int    `json:"streamed"`
	// Targets maps receiving member ID → entries streamed to it.
	Targets map[string]int `json:"targets"`
	// Errors lists per-target streaming failures (entries for those
	// targets are lost to the fleet cache and will be recomputed on demand).
	Errors []string `json:"errors,omitempty"`
}

// Drain puts the node in draining mode and streams its resident schedule
// entries to their post-drain owners (routing on the ring without self), so
// the fleet keeps its hit rate when this node exits. Draining is one-way:
// the node keeps serving — everything locally, no forwarding — until the
// process exits. Safe to call more than once; later calls re-stream
// whatever is resident.
func (s *Service) Drain(ctx context.Context) DrainReport {
	s.draining.Store(true)
	report := DrainReport{Targets: map[string]int{}}
	if s.fleet == nil {
		return report
	}
	report.Node = s.fleet.Self().ID

	// Group resident entries by their post-drain owner. Entries whose spec
	// no longer resolves cannot exist (they resolved to get cached), but
	// skip defensively rather than abort the drain.
	perTarget := make(map[string][]WorkloadSpec)
	targetByID := make(map[string]fleet.Member)
	s.schedules.ForEach(func(_ scheduleKey, e *scheduleEntry) {
		report.Entries++
		res, err := e.spec.resolve()
		if err != nil {
			return
		}
		owners := s.fleet.DrainTargets(res.fleetKey(), 1)
		if len(owners) == 0 {
			return
		}
		perTarget[owners[0].ID] = append(perTarget[owners[0].ID], e.spec)
		targetByID[owners[0].ID] = owners[0]
	})

	ids := make([]string, 0, len(perTarget))
	for id := range perTarget {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		specs := perTarget[id]
		sent, err := s.streamWarm(ctx, targetByID[id], specs)
		report.Streamed += sent
		if sent > 0 {
			report.Targets[id] = sent
			s.fleet.ReportDrained(id, sent)
		}
		if err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf("%s: %v", id, err))
		}
	}
	return report
}

// streamWarm POSTs specs to m's /v1/fleet/warm in chunks, returning how
// many entries the peer acknowledged warming.
func (s *Service) streamWarm(ctx context.Context, m fleet.Member, specs []WorkloadSpec) (int, error) {
	warmed := 0
	for start := 0; start < len(specs); start += warmChunk {
		end := start + warmChunk
		if end > len(specs) {
			end = len(specs)
		}
		payload, err := json.Marshal(WarmRequest{Workloads: specs[start:end]})
		if err != nil {
			return warmed, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/v1/fleet/warm", bytes.NewReader(payload))
		if err != nil {
			return warmed, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.fleetClient.Do(req)
		if err != nil {
			return warmed, err
		}
		var wr WarmResponse
		err = json.NewDecoder(resp.Body).Decode(&wr)
		resp.Body.Close()
		if err != nil {
			return warmed, err
		}
		if resp.StatusCode != http.StatusOK {
			return warmed, fmt.Errorf("warm POST: status %d", resp.StatusCode)
		}
		warmed += wr.Warmed
	}
	return warmed, nil
}

func (s *Service) handleDrain(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.Drain(r.Context()))
	return nil
}

// FleetMetrics is the fleet section of /metrics: the node's full membership
// view (per-peer health and forward/hedge/drain counters included) plus the
// draining latch and forward hedge timeout.
type FleetMetrics struct {
	fleet.View
	Draining            bool    `json:"draining"`
	HedgeTimeoutSeconds float64 `json:"hedge_timeout_seconds"`
}

// fleetMetrics returns the /metrics fleet section, nil outside fleet mode.
func (s *Service) fleetMetrics() *FleetMetrics {
	if s.fleet == nil {
		return nil
	}
	return &FleetMetrics{
		View:                s.fleet.View(),
		Draining:            s.draining.Load(),
		HedgeTimeoutSeconds: s.forwarder.HedgeTimeout().Seconds(),
	}
}
