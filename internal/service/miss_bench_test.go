package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkScheduleMiss measures the schedule-cache miss path through
// Service.Handler on a warm 4×2 cluster: twelve seeds cycle through a
// schedule cache of four entries, so every op misses, builds its schedule
// entry and marshals its payload. The cluster stays cached, and the first
// pass over the seeds fills its prediction memo, so under tic a miss reuses
// the seed-free makespan where the cluster has one, while under none every
// miss simulates its jitter-0 iteration. `make perf` records these rows in
// BENCH_sim.json.
func BenchmarkScheduleMiss(b *testing.B) {
	const seeds = 12
	for _, model := range []string{"AlexNet v2", "Inception v1", "ResNet-101 v2"} {
		for _, policy := range []string{"tic", "none"} {
			b.Run(model+"/"+policy, func(b *testing.B) {
				svc := New(Options{CacheCapacity: 4})
				h := svc.Handler()
				bodies := make([][]byte, seeds)
				for i := range bodies {
					spec := WorkloadSpec{Model: model, Policy: policy, Workers: 4, PS: 2, Seed: int64(i + 1)}
					body, err := json.Marshal(ScheduleRequest{Workload: spec})
					if err != nil {
						b.Fatal(err)
					}
					bodies[i] = body
				}
				serve := func(body []byte) {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
					}
				}
				for _, body := range bodies {
					serve(body)
				}
				_, before := svc.BuildCounts()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serve(bodies[i%seeds])
				}
				b.StopTimer()
				if _, after := svc.BuildCounts(); after-before != uint64(b.N) {
					b.Fatalf("%d schedule builds in %d ops; every op should miss", after-before, b.N)
				}
			})
		}
	}
}
