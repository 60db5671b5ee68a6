package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tictac/internal/fleet"
	"tictac/internal/service"
)

// inProcess serves n services on loopback, a fleet when n > 1, and returns
// them as a deployment without processes.
func inProcess(t *testing.T, n int) *deployment {
	t.Helper()
	dep := &deployment{}
	var members []fleet.Member
	var muxes []*lateHandler
	for i := 0; i < n; i++ {
		h := &lateHandler{}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		id := fmt.Sprintf("n%d", i+1)
		dep.nodes = append(dep.nodes, &daemon{id: id, url: srv.URL})
		members = append(members, fleet.Member{ID: id, URL: srv.URL})
		muxes = append(muxes, h)
	}
	for i, h := range muxes {
		opts := service.Options{}
		if n > 1 {
			node, err := fleet.NewNode(fleet.Config{Self: members[i].ID, Members: members})
			if err != nil {
				t.Fatal(err)
			}
			opts.Fleet = node
		}
		h.set(service.New(opts).Handler())
	}
	return dep
}

// lateHandler lets a server start, and so get its URL, before the fleet
// member behind it exists.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// TestSmokeEveryWorkload runs each workload at about a hundredth of its
// size against in-process services: set-up pass, traced phase, a short
// ladder and the cross-check.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			dep := inProcess(t, w.nodes)
			target := dep.nodes[0].url
			chk := newChecker()
			warm := w.warm[:min(len(w.warm), 30)]
			if ph := runPhase(ctx, phaseConfig{target: target, w: w, list: warm}, chk); ph.failed > 0 || ph.attempted != len(warm) {
				t.Fatalf("set-up pass: %d of %d failed: %v", ph.failed, ph.attempted, ph.failures)
			}
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			before, err := dep.metrics(ctx, hc)
			if err != nil {
				t.Fatal(err)
			}
			ph := runPhase(ctx, phaseConfig{target: target, w: w, windows: 4, window: 250 * time.Millisecond, trace: true}, chk)
			if ph.failed > 0 || ph.attempted == 0 || len(ph.records) == 0 {
				t.Fatalf("measured phase: %d of %d failed, %d traced: %v", ph.failed, ph.attempted, len(ph.records), ph.failures)
			}
			after, err := dep.metrics(ctx, hc)
			if err != nil {
				t.Fatal(err)
			}
			counters := counterMetrics(before, after, ph.attempted)
			share := counters["fleet.forwarded_share"].Value
			if (w.nodes > 1) != (share > 0) {
				t.Errorf("forwarded share %g with %d nodes", share, w.nodes)
			}
			if name == "schedule-hot" && counters["cache.schedules.hit_rate"].Value != 1 {
				t.Errorf("schedule-hot after set-up: hit rate %g, want 1", counters["cache.schedules.hit_rate"].Value)
			}

			tr := &tracer{origin: time.Now()}
			samples, err := runLadder(ctx, w, dep, ph, tr, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := layerMetrics(samples)
			if len(samples) != 1 || m["service.handler_us"].Value <= 0 || m["cluster.build_ms"].Value <= 0 {
				t.Errorf("ladder: %d samples, handler %g us, build %g ms", len(samples), m["service.handler_us"].Value, m["cluster.build_ms"].Value)
			}
			if cc := crossCheck(ctx, hc, target, w, chk, 3, 4, 1); cc.failed > 0 || cc.attempted == 0 {
				t.Errorf("cross-check: %d of %d failed: %v", cc.failed, cc.attempted, cc.failures)
			}
		})
	}
}

// TestFlippedByteIsAMismatch puts a proxy that corrupts one byte of one
// response in front of a service; the run must count it as a failure.
func TestFlippedByteIsAMismatch(t *testing.T) {
	svc := service.New(service.Options{}).Handler()
	var served atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if served.Add(1) == 2 {
			// Flip a byte of the result, not of the framing around it.
			i := bytes.Index(body, []byte(`"model"`))
			body[i+2] ^= 0x01
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer proxy.Close()

	w, err := newWorkload("schedule-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker()
	ph := runPhase(context.Background(), phaseConfig{target: proxy.URL, w: w, list: []int{0, 0, 0, 0}}, chk)
	if ph.attempted != 4 || ph.failed == 0 {
		t.Fatalf("a flipped byte went unnoticed: %d attempted, %d failed", ph.attempted, ph.failed)
	}
	if !strings.Contains(ph.failures[0], "different bytes") {
		t.Errorf("failure %q does not name the mismatch", ph.failures[0])
	}
	// The same corruption on the first response is caught by the
	// cross-check against a fresh in-process service instead.
	chk = newChecker()
	served.Store(1)
	runPhase(context.Background(), phaseConfig{target: proxy.URL, w: w, list: []int{0}}, chk)
	if cc := crossCheck(context.Background(), http.DefaultClient, proxy.URL, w, chk, 1, 1, 0); cc.failed != 1 {
		t.Errorf("cross-check missed a corrupted first response: %d failed", cc.failed)
	}
}
