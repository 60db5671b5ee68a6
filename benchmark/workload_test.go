package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"tictac/internal/model"
)

// sequence renders a workload's set-up pass and first n measured requests
// as one byte string.
func sequence(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	emit := func(i int) {
		b.WriteString(w.reqs[i].path)
		b.Write(w.reqs[i].body)
		b.WriteByte('\n')
	}
	for _, i := range w.warm {
		emit(i)
	}
	for k := 0; k < n; k++ {
		emit(w.next())
	}
	return b.Bytes()
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequence(t, name, 1, 500), sequence(t, name, 1, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different requests", name)
		}
		if c := sequence(t, name, 2, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same requests", name)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, c := range []struct {
		name        string
		nodes, reqs int
		warm        int
	}{
		{"schedule-hot", 1, 30, 30},
		{"fleet-forward", 3, 30, 30},
		{"schedule-zipf", 1, 10 * 4 * 4 * 2 * 12, zipfWarm},
		// 270 simulates, 10 batches and the 30 schedules set-up warms.
		{"whatif", 1, 270 + 10 + 30, 30},
	} {
		w, err := newWorkload(c.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if w.nodes != c.nodes || len(w.reqs) != c.reqs || len(w.warm) != c.warm {
			t.Errorf("%s: %d nodes, %d requests, %d warm; want %d, %d, %d",
				c.name, w.nodes, len(w.reqs), len(w.warm), c.nodes, c.reqs, c.warm)
		}
	}
	w, _ := newWorkload("whatif", 7)
	batches := 0
	for k := 0; k < 110; k++ {
		if rq := w.reqs[w.next()]; rq.path == pathBatch {
			batches++
			if rq.ops != 18 {
				t.Errorf("a batch carries %d variants, want 18", rq.ops)
			}
		}
	}
	if batches != 10 {
		t.Errorf("110 what-if requests hold %d batches, want one after every 10 simulates", batches)
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

// modelOf returns the model a request body names.
func modelOf(t *testing.T, body []byte) string {
	t.Helper()
	var env specEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return env.Workload.Model
}

func TestWhatifDealsEveryModelEachRound(t *testing.T) {
	models := len(model.Names())
	for _, seed := range []int64{1, 2} {
		w, _ := newWorkload("whatif", seed)
		sims, batches := map[string]int{}, map[string]int{}
		for k := 0; k < models*(whatifBatchGap+1); k++ {
			rq := w.reqs[w.next()]
			if rq.path == pathBatch {
				batches[modelOf(t, rq.body)]++
				continue
			}
			sims[modelOf(t, rq.body)]++
		}
		if len(batches) != models {
			t.Errorf("seed %d: the first %d batches cover %d models, want %d", seed, models, len(batches), models)
		}
		for m, n := range sims {
			if n != whatifBatchGap {
				t.Errorf("seed %d: %d of the first %d simulates are %s, want %d", seed, n, models*whatifBatchGap, m, whatifBatchGap)
			}
		}
	}
}

// TestZipfRankingKeepsShapesInPlace checks that the three most drawn keys
// of two seeds have the same shapes, all under tic at 1 worker and 1 PS.
func TestZipfRankingKeepsShapesInPlace(t *testing.T) {
	shape := func(body []byte) string {
		var env specEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		s := env.Workload
		return fmt.Sprintf("%s/%s/%d/%d", s.Model, s.Policy, s.Workers, s.PS)
	}
	top := func(seed int64) []string {
		w, _ := newWorkload("schedule-zipf", seed)
		counts := map[int]int{}
		for k := 0; k < 20000; k++ {
			counts[w.next()]++
		}
		var keys []int
		for i := range counts {
			keys = append(keys, i)
		}
		sort.Slice(keys, func(a, b int) bool { return counts[keys[a]] > counts[keys[b]] })
		var shapes []string
		for _, i := range keys[:3] {
			shapes = append(shapes, shape(w.reqs[i].body))
		}
		sort.Strings(shapes)
		return shapes
	}
	a, b := top(1), top(2)
	for i := range a {
		if a[i] != b[i] || !strings.HasSuffix(a[i], "/tic/1/1") {
			t.Fatalf("the hottest keys differ in shape between seeds: %v and %v", a, b)
		}
	}
}
