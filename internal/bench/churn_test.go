package bench

import (
	"bytes"
	"strings"
	"testing"

	"tictac/internal/cluster"
)

func TestChurnStableAnchorAndRecovery(t *testing.T) {
	res, err := Churn(Quick())
	if err != nil {
		t.Fatal(err)
	}
	stable, fails := 0, 0
	for _, r := range res.Rows {
		switch r.Scenario {
		case scenarioStable:
			stable++
			if r.Events != 0 || r.Rate != 0 {
				t.Fatalf("stable row carries events: %+v", r)
			}
			if r.NormVsStable != 1 {
				t.Fatalf("stable row normalizes to %v, want 1", r.NormVsStable)
			}
			if r.RecoverySec != 0 {
				t.Fatalf("stable row has recovery %v", r.RecoverySec)
			}
		case ScenarioWorkerFail, ScenarioPSFail:
			fails++
			if r.Events == 0 {
				t.Fatalf("%s row injected no events: %+v", r.Scenario, r)
			}
			if r.RecoverySec <= 0 {
				t.Fatalf("%s row has no recovery cost: %+v", r.Scenario, r)
			}
			if r.NormVsStable <= 1 {
				t.Fatalf("%s row not slower than stable: %+v", r.Scenario, r)
			}
		case ScenarioWorkerChurn:
			// A clean leave loses no work: recovery is only the rejoin
			// fetch, and the short-handed iterations can even be faster.
			if r.Events == 0 {
				t.Fatalf("%s row injected no events: %+v", r.Scenario, r)
			}
		}
	}
	// One stable anchor per (model, policy, workers) triple.
	if want := 2 * len(churnWorkers); stable != want {
		t.Fatalf("got %d stable rows, want %d", stable, want)
	}
	if fails == 0 {
		t.Fatal("no fail-scenario rows")
	}
	if len(res.Summary) != 2*len(churnScenarios) {
		t.Fatalf("got %d summary rows, want %d", len(res.Summary), 2*len(churnScenarios))
	}
	var buf bytes.Buffer
	WriteChurn(&buf, res)
	if !strings.Contains(buf.String(), "Churn: policy robustness") {
		t.Fatalf("rendering missing summary table:\n%s", buf.String())
	}
}

// TestChurnEventsGrammar exhausts the script generator over the sweep grid
// (and the minimum fleet at rate 1, the tightest rotation) against the
// timeline validator — the script must never produce an invalid sequence.
func TestChurnEventsGrammar(t *testing.T) {
	for _, scenario := range churnScenarios {
		for _, workers := range []int{8, 16, 64, 256} {
			for _, rate := range []float64{0.1, 0.25, 0.5, 1} {
				evs := ChurnEvents(scenario, workers, workers/4, 2, 12, rate)
				if len(evs) == 0 {
					t.Fatalf("%s/%d/%v: empty script", scenario, workers, rate)
				}
				if _, err := cluster.NewTimeline(workers, workers/4, evs); err != nil {
					t.Fatalf("%s/%d/%v: invalid script: %v", scenario, workers, rate, err)
				}
				for _, e := range evs {
					if e.Worker == 0 && e.Kind != cluster.PSShardFail && e.Kind != cluster.PSRecover {
						t.Fatalf("%s/%d/%v: script strikes reference worker 0", scenario, workers, rate)
					}
				}
			}
		}
	}
}

func TestChurnOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"unknown model", func(o *Options) { o.Models = []string{"NoSuchNet"} }},
		{"unknown policy", func(o *Options) { o.Policies = []string{"nope"} }},
	}
	for _, tc := range cases {
		o := Quick()
		tc.mut(&o)
		if _, err := Churn(o); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
