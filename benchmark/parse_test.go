package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with a space and a parenthesis must not shift fields.
	stat := "4242 (tictac d) x) S 1 4242 4242 0 -1 4194560 3100 0 0 0 731 219 0 0 20 0 9 0 1234 1000 2000 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+219 {
		t.Errorf("utime+stime = %d, want %d", got, 731+219)
	}
	if _, err := parseStatCPU("4242 (tictacd) S 1"); err == nil {
		t.Error("a truncated stat line must be an error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ttictacd\nVmPeak:\t 1300000 kB\nVmHWM:\t  689012 kB\nVmRSS:\t  612000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 689012 {
		t.Errorf("VmHWM = %d kB, want 689012", got)
	}
	if _, err := parseVmHWM("Name:\ttictacd\n"); err == nil {
		t.Error("status without VmHWM must be an error")
	}
}

func TestParseGCTrace(t *testing.T) {
	for _, c := range []struct {
		line string
		cpu  float64
		ok   bool
	}{
		// Idle marking (1.1) is left out: 0.031 + 0.42 + 0.93 + 0.012.
		{"gc 7 @1.234s 3%: 0.015+1.8+0.006 ms clock, 0.031+0.42/0.93/1.1+0.012 ms cpu, 4->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P", 1.393, true},
		{"gc 12 @20.5s 9%: 0.1+3+0.02 ms clock, 0.2+1/2/0+0.04 ms cpu, 30->31->12 MB, 31 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)", 3.24, true},
		{"tictacd: serving on 127.0.0.1:8080", 0, false},
		{"gc 1 @0.01s 1%: garbled", 0, false},
	} {
		cpu, ok := parseGCTrace(c.line)
		if ok != c.ok || math.Abs(cpu-c.cpu) > 1e-9 {
			t.Errorf("parseGCTrace(%q) = %g, %v; want %g, %v", c.line, cpu, ok, c.cpu, c.ok)
		}
	}
	var g gcLog
	t0 := time.Now()
	g.add("gc 1 @0.1s 1%: 0+1+0 ms clock, 0+1/0/0+0 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P", t0)
	g.add("gc 2 @0.2s 1%: 0+1+0 ms clock, 0+2/0/0+0 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P", t0.Add(time.Second))
	if n, cpu := g.between(t0, t0.Add(time.Second)); n != 1 || cpu != 1 {
		t.Errorf("between covers [from, to): got %d cycles, %g ms", n, cpu)
	}
}

func TestSelfTimes(t *testing.T) {
	samples := []sample{
		// A schedule hit: the handler runs no library code.
		{path: pathSchedule, cached: true, rungs: map[string]float64{
			rungRoundtrip: 200, rungOwner: 150, rungHandler: 40, rungBuild: 9000, rungRun: 1,
		}},
		// A schedule miss pays build, digest, schedule and first iteration.
		{path: pathSchedule, rungs: map[string]float64{
			rungRoundtrip: 9000, rungHandler: 8000, rungBuild: 4000, rungDigest: 1000, rungCompute: 1500, rungIteration: 1000, rungRun: 1,
		}},
		// A simulate served from the schedule cache pays the protocol run.
		{path: pathSimulate, cached: true, rungs: map[string]float64{
			rungRoundtrip: 5300, rungOwner: 5300, rungHandler: 5100, rungRun: 5000,
		}},
		// A batch whose variants kept every processor busy for its 1 ms.
		{path: pathBatch, work: 1000 * float64(runtime.GOMAXPROCS(0)), rungs: map[string]float64{rungHandler: 1000}},
	}
	m := layerMetrics(samples)
	for name, want := range map[string]float64{
		"service.self_us":           100, // median of 40, 500 and 100
		"http.self_us":              200, // median of 160, 1000 and 200
		"fleet.forward_us":          25,  // median of 50 and 0
		"batch.parallel_efficiency": 1,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if got := missCoverage(samples); got != 7500.0/8000 {
		t.Errorf("miss coverage = %g, want %g", got, 7500.0/8000)
	}
	if got := m["sched.order_ms"].Value; got != 0 {
		t.Errorf("a rung no sample ran reads %g, want 0", got)
	}
}

func TestTraceOverhead(t *testing.T) {
	// Even windows are untraced, odd ones traced.
	if got := traceOverhead([]float64{100, 90, 100, 90}); math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %g%%, want 10%%", got)
	}
	if got := traceOverhead([]float64{100}); got != 0 {
		t.Errorf("overhead without traced windows = %g, want 0", got)
	}
}
