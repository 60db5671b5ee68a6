package main

import (
	"testing"
	"time"
)

func TestSpeedFactorsByWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	ref := probeReferenceUS
	samples := []probeSample{
		{at(-5), 4 * ref},                                   // before the phase: counts only towards the fallback
		{at(10), ref}, {at(20), 3 * ref}, {at(30), 2 * ref}, // window 0: median 2
		{at(110), ref / 2},  // window 1
		{at(400), 10 * ref}, // after the last window
	}
	got := speedFactors(samples, start, 100*time.Millisecond, 3)
	// Window 2 has no samples and takes the median of all six: (2+3)/2.
	want := []float64{2, 0.5, 2.5}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("speedFactors = %v, want %v", got, want)
		}
	}
}

func TestScaledDividesLatencyAndMultipliesWork(t *testing.T) {
	p := phase{
		lat:       map[string][]float64{pathSchedule: {1, 2, 3}},
		latWindow: map[string][]int{pathSchedule: {0, 1, 1}},
		windowOps: []float64{10, 20},
	}
	lat, ops := p.scaled([]float64{2, 0.5})
	if l := lat[pathSchedule]; l[0] != 0.5 || l[1] != 4 || l[2] != 6 {
		t.Errorf("scaled latencies %v, want [0.5 4 6]", l)
	}
	if ops[0] != 20 || ops[1] != 10 {
		t.Errorf("scaled work %v, want [20 10]", ops)
	}
	if p.lat[pathSchedule][0] != 1 {
		t.Error("scaled changed the measured latencies")
	}
}

func TestSpeedProbeSamples(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(5 * probeInterval)
	samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.us <= 0 {
			t.Fatalf("probe sample of %g us", s.us)
		}
	}
}
