package bench

import (
	"bytes"
	"reflect"
	"testing"
)

// The engine's contract: experiment output is bit-identical at every pool
// width, so parallelism can never silently change paper numbers. Under
// go test -race these tests double as the bench package's concurrency gate.

func withJobs(o Options, jobs int) Options {
	o.Jobs = jobs
	return o
}

// TestAllExperimentsDeterministicAcrossJobs runs EVERY registry experiment
// at -jobs 1 (the zero-overhead sequential reference path) and -jobs 8 at a
// tiny scale, and requires both the rendered text and the typed rows to be
// identical. Every experiment is covered so a future port can't silently
// become order-sensitive.
func TestAllExperimentsDeterministicAcrossJobs(t *testing.T) {
	o := Options{
		Warmup:     1,
		Measure:    1,
		Runs:       4,
		TrainIters: 5,
		Seed:       1,
		Models:     []string{"Inception v1"},
	}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			o := o
			if exp.Name == "churn" {
				// Churn sweeps fleets of up to 256 workers: a run costs
				// 5.7 s on Inception v1 but 1.0 s on its default AlexNet v2.
				o.Models = nil
			}
			var seqBuf, parBuf bytes.Buffer
			seqRows, err := exp.Run(withJobs(o, 1), &seqBuf)
			if err != nil {
				t.Fatalf("-jobs 1: %v", err)
			}
			parRows, err := exp.Run(withJobs(o, 8), &parBuf)
			if err != nil {
				t.Fatalf("-jobs 8: %v", err)
			}
			if seqBuf.String() != parBuf.String() {
				t.Fatalf("rendered output differs between -jobs 1 and -jobs 8:\n--- seq ---\n%s\n--- par ---\n%s",
					seqBuf.String(), parBuf.String())
			}
			if !reflect.DeepEqual(seqRows, parRows) {
				t.Fatalf("typed rows differ between -jobs 1 and -jobs 8")
			}
		})
	}
}

// TestFig12DeterministicAcrossJobs keeps a deeper probe on the experiment
// with the largest fan-out (one point per run index over a shared cluster
// and schedule), at a scale closer to Quick.
func TestFig12DeterministicAcrossJobs(t *testing.T) {
	o := quick()
	o.Runs = 12
	seq, err := Fig12Regression(withJobs(o, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig12Regression(withJobs(o, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fig12 results differ between -jobs 1 and -jobs 8")
	}
}
