package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// benchBatchBody marshals a 24-variant capacity-planning sweep (3 policies ×
// 4 seeds, plus a straggler and a slow-worker override per policy sweep) over
// one AlexNet graph. One request = one graph parse, shared cluster, fan-out
// on the worker pool.
func benchBatchBody(b *testing.B) ([]byte, int) {
	b.Helper()
	base := WorkloadSpec{Model: "AlexNet v2", Workers: 2, PS: 1, Seed: 7, MeasureIterations: 4}
	var variants []BatchVariant
	for _, policy := range []string{"none", "tic", "critical-path"} {
		p := policy
		for seed := int64(1); seed <= 4; seed++ {
			s := seed
			variants = append(variants, BatchVariant{Policy: &p, Seed: &s})
		}
		variants = append(variants,
			BatchVariant{Policy: &p, Stragglers: &[]StragglerSpec{{Worker: 0, Factor: 2.5, From: 1, Until: 3}}},
			BatchVariant{Policy: &p, Overrides: &PlatformOverrides{
				Devices: map[string]DeviceOverride{"worker:1": {SlowCompute: 2}},
			}},
		)
	}
	body, err := json.Marshal(BatchRequest{Workload: base, Variants: variants})
	if err != nil {
		b.Fatal(err)
	}
	return body, len(variants)
}

// BenchmarkBatchThroughput measures /v1/batch end to end (decode, resolve,
// fan-out, summarize, encode) through the HTTP handler, reporting
// variants/sec at pool width 1 vs GOMAXPROCS. Results are identical at any
// width; only throughput moves.
func BenchmarkBatchThroughput(b *testing.B) {
	for _, bc := range []struct {
		name string
		jobs int
	}{
		{"jobs1", 1},
		{"jobsN", 0}, // 0 = GOMAXPROCS
	} {
		b.Run("AlexNet_v2/"+bc.name, func(b *testing.B) {
			svc := New(Options{BatchJobs: bc.jobs})
			h := svc.Handler()
			body, nVariants := benchBatchBody(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(nVariants*b.N)/b.Elapsed().Seconds(), "variants/sec")
		})
	}
}
