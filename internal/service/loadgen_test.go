package service_test

// Input checks of the load driver in internal/loadgen, which drives this
// service. They are an external test package because loadgen imports
// service.

import (
	"strings"
	"testing"

	"tictac/internal/loadgen"
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
