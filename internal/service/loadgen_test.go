package service_test

// Tests of the load driver in internal/loadgen, which drives this service.
// They are an external test package because loadgen imports service.

import (
	"net/http/httptest"
	"strings"
	"testing"

	"tictac/internal/loadgen"
	"tictac/internal/service"
	"tictac/internal/trace"
)

// TestRunLoadRequiresTarget pins that a named target must be a usable
// http(s) base URL: a blank or scheme-less one is refused before any load
// is sent, instead of surfacing as a run of failed requests.
func TestRunLoadRequiresTarget(t *testing.T) {
	for _, target := range []string{"", "127.0.0.1:8080", "ftp://127.0.0.1:8080", "http://"} {
		_, err := loadgen.Run(loadgen.Options{Trace: loadgen.Mix(4, 1), Targets: []string{target}})
		if err == nil || !strings.Contains(err.Error(), "target") {
			t.Errorf("target %q: err = %v, want a bad-target error", target, err)
		}
	}
}

func TestRunReplayOptionValidation(t *testing.T) {
	w := loadgen.Mix(4, 1)
	cases := map[string]loadgen.Options{
		"no trace":      {},
		"invalid trace": {Trace: &trace.Workload{Name: "unversioned", Events: w.Events}},
		"bad policy":    {Trace: w, Policies: []string{"astrology"}},
		"bad size":      {Trace: w, CacheSizes: []int{0}},
		"bad timescale": {Trace: w, Timescale: -1},
	}
	for name, opts := range cases {
		if _, err := loadgen.Run(opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHitRateCountsCoalesced sends 32 requests for one key, 16 at a time.
// The first schedule build is held open until the other 15 requests in
// flight wait on it, so exactly 15 lookups coalesce. The curve's hit rate
// must be the one /metrics reports, coalesced lookups included.
func TestHitRateCountsCoalesced(t *testing.T) {
	svc := service.New(service.Options{})
	service.HoldFirstScheduleBuild(svc, 15)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	w := &trace.Workload{Version: trace.WorkloadVersion, Name: "one-key"}
	for range 32 {
		w.Events = append(w.Events, trace.Event{Model: "AlexNet v2", Policy: "tic"})
	}
	report, err := loadgen.Run(loadgen.Options{Trace: w, Targets: []string{ts.URL}, Concurrency: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	c := report.Curves[0]
	m := svc.Metrics().Cache.Schedules
	if c.Server.HitRate != m.HitRate || c.Server.Coalesced != m.Coalesced {
		t.Errorf("curve hit rate %v (%d coalesced), /metrics %v (%d coalesced); want equal",
			c.Server.HitRate, c.Server.Coalesced, m.HitRate, m.Coalesced)
	}
	if m.Coalesced != 15 {
		t.Errorf("%d coalesced lookups (%+v), want 15: the held build should collect every other request in flight", m.Coalesced, m)
	}
}
