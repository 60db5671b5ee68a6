package bench

import (
	"bytes"
	"strings"
	"testing"
)

// heteroQuick keeps the hetero unit tests cheap: one cheap model and two
// policies.
func heteroQuick() Options {
	o := Quick()
	o.Models = []string{"AlexNet v2"}
	o.Policies = []string{"tic", "random"}
	return o
}

// The acceptance bar of the heterogeneity subsystem: the homogeneous
// (severity 1) rows of the hetero sweep must reproduce the shootout's
// numbers bit-identically — same models, same policies, same seeds, and a
// PlatformMap-free build that costs exactly what the shootout's does.
func TestHeteroHomogeneousMatchesShootoutBitIdentical(t *testing.T) {
	o := Quick()
	o.Models = []string{"AlexNet v2", "VGG-16"}
	o.Policies = []string{"tic", "tac", "random"}

	shootout, err := Shootout(o)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := Hetero(o)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, r := range shootout.Rows {
		want[r.Model+"/"+r.Policy] = r.MeanIterSec
	}
	checked := 0
	for _, r := range hetero.Rows {
		if r.Scenario != "homog" {
			continue
		}
		base, ok := want[r.Model+"/"+r.Policy]
		if !ok {
			t.Fatalf("no shootout row for %s/%s", r.Model, r.Policy)
		}
		if r.MeanIterSec != base {
			t.Fatalf("%s/%s: homog iter %v != shootout %v (must be bit-identical)",
				r.Model, r.Policy, r.MeanIterSec, base)
		}
		if r.Severity != 1 || r.NormVsHomog != 1 {
			t.Fatalf("homog row not its own anchor: %+v", r)
		}
		checked++
	}
	if checked != len(want) {
		t.Fatalf("checked %d homog rows, want %d", checked, len(want))
	}
}

// Injected heterogeneity must cost time: every perturbed row lands at or
// above its homogeneous anchor, and cranking severity up never makes the
// straggler scenario cheaper.
func TestHeteroSeverityDegradesPerformance(t *testing.T) {
	o := heteroQuick()
	res, err := Hetero(o)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]HeteroRow{}
	for _, r := range res.Rows {
		byKey[r.Policy+"/"+r.Scenario+"/"+f1(r.Severity)] = r
		if r.Scenario == "homog" {
			continue
		}
		// Jitter gives ±4%; a ×2..×4 injection dominates it for straggler
		// and contention, but let every scenario clear at least break-even
		// minus noise.
		if r.NormVsHomog < 0.97 {
			t.Fatalf("injection sped the run up: %+v", r)
		}
	}
	for _, policy := range []string{"tic", "random"} {
		lo := byKey[policy+"/"+ScenarioStraggler+"/2.0"]
		hi := byKey[policy+"/"+ScenarioStraggler+"/4.0"]
		if hi.NormVsHomog <= lo.NormVsHomog {
			t.Fatalf("%s: straggler ×4 (%v) not worse than ×2 (%v)",
				policy, hi.NormVsHomog, lo.NormVsHomog)
		}
		// A ×4 compute straggler must visibly blow up worker wait time.
		if hi.MaxStragglerPct <= lo.MaxStragglerPct {
			t.Fatalf("%s: straggler%% did not grow with severity: %v vs %v",
				policy, hi.MaxStragglerPct, lo.MaxStragglerPct)
		}
	}
	// Summary covers every (policy, scenario) pair with geomean >= ~1.
	wantPairs := len(o.Policies) * len(heteroScenarios)
	if len(res.Summary) != wantPairs {
		t.Fatalf("summary has %d pairs, want %d", len(res.Summary), wantPairs)
	}
	for _, s := range res.Summary {
		if s.GeomeanNormVsHomog < 0.97 {
			t.Fatalf("robustness geomean below break-even: %+v", s)
		}
	}
}

// Option validation fails loudly: unknown models and policies are errors,
// not silent empty sweeps.
func TestHeteroOptionValidation(t *testing.T) {
	o := heteroQuick()
	o.Models = []string{"NoSuchNet"}
	if _, err := Hetero(o); err == nil {
		t.Fatal("unknown model accepted")
	}
	o = heteroQuick()
	o.Policies = []string{"nope"}
	if _, err := Hetero(o); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// The rendered report carries both tables.
func TestWriteHetero(t *testing.T) {
	o := heteroQuick()
	var buf bytes.Buffer
	exps, err := SelectExperiments("hetero")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exps[0].Run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Hetero:", "policy robustness", "straggler", "homog", "tic", "random"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
