// The service example runs the tictacd scheduling daemon in-process and
// exercises its API the way a client fleet would: a cold schedule request,
// a storm of identical concurrent requests that coalesce onto one build, a
// what-if simulation, a batched capacity-planning sweep over one graph, and
// a /metrics read showing the cache absorbing the traffic. See
// docs/service.md for the full API reference.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"tictac"
)

func main() {
	// Mount the service on a loopback listener, as cmd/tictacd would.
	svc := tictac.NewService(tictac.ServiceOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("tictacd serving on %s\n\n", base)

	// 1. A cold schedule request: built once, digested, cached. The body
	// wraps the workload in an envelope ({"workload": ...}); any other
	// top-level field is a 400.
	workload := tictac.ServiceWorkloadSpec{
		Model: "ResNet-50 v2", Policy: "tic", Workers: 4, PS: 2, Seed: 1,
	}
	req := tictac.ServiceScheduleRequest{Workload: workload}
	t0 := time.Now()
	resp := postJSON(base+"/v1/schedule", req)
	coldMs := time.Since(t0).Seconds() * 1000
	var sched struct {
		Cached bool `json:"cached"`
		Result struct {
			GraphDigest       string   `json:"graph_digest"`
			Transfers         int      `json:"transfers"`
			Order             []string `json:"order"`
			PredictedMakespan float64  `json:"predicted_makespan_seconds"`
		} `json:"result"`
	}
	mustUnmarshal(resp, &sched)
	fmt.Printf("cold request: cached=%v  %d transfers  predicted makespan %.4fs  (%.1fms)\n",
		sched.Cached, sched.Result.Transfers, sched.Result.PredictedMakespan, coldMs)
	fmt.Printf("graph digest: %s...\n", sched.Result.GraphDigest[:16])
	fmt.Printf("first transfers: %v\n\n", sched.Result.Order[:3])

	// 2. A storm of identical requests: the singleflight cache serves all
	// of them from one build.
	const storm = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	cachedCount := 0
	t0 = time.Now()
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r struct {
				Cached bool `json:"cached"`
			}
			mustUnmarshal(postJSON(base+"/v1/schedule", req), &r)
			if r.Cached {
				mu.Lock()
				cachedCount++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Printf("storm: %d identical concurrent requests in %.1fms, %d served from cache\n\n",
		storm, time.Since(t0).Seconds()*1000, cachedCount)

	// 3. A what-if simulation reusing the cached cluster and schedule. The
	// simulate protocol knobs live on the same WorkloadSpec envelope.
	simWorkload := workload
	simWorkload.MeasureIterations = 5
	simReq := tictac.ServiceSimulateRequest{Workload: simWorkload}
	var sim struct {
		Result struct {
			MeanThroughput  float64 `json:"mean_throughput_samples_per_second"`
			MeanMakespan    float64 `json:"mean_makespan_seconds"`
			MaxStragglerPct float64 `json:"max_straggler_pct"`
		} `json:"result"`
	}
	mustUnmarshal(postJSON(base+"/v1/simulate", simReq), &sim)
	fmt.Printf("simulate: %.0f samples/s, mean iteration %.4fs, worst straggler %.1f%%\n\n",
		sim.Result.MeanThroughput, sim.Result.MeanMakespan, sim.Result.MaxStragglerPct)

	// 4. A batched capacity-planning sweep: one graph, many variants. The
	// server parses the graph once, derives override platforms from the base
	// cluster, coalesces duplicates, and returns a ranked summary. Each
	// variant payload is byte-identical to the /v1/simulate response for the
	// same spec.
	tic, none, cp := "tic", "none", "critical-path"
	batchReq := tictac.ServiceBatchRequest{
		Workload: simWorkload,
		Variants: []tictac.ServiceBatchVariant{
			{Label: "baseline-unscheduled", Policy: &none},
			{Label: "tic", Policy: &tic},
			{Label: "critical-path", Policy: &cp},
			{Label: "tic-slow-worker", Policy: &tic, Overrides: &tictac.ServicePlatformOverrides{
				Devices: map[string]tictac.ServiceDeviceOverride{"worker:3": {SlowCompute: 2.5}},
			}},
			{Label: "tic-straggler", Policy: &tic, Stragglers: &[]tictac.ServiceStragglerSpec{
				{Worker: 2, Factor: 3, From: 1, Until: 4},
			}},
		},
	}
	var batch tictac.ServiceBatchResponse
	mustUnmarshal(postJSON(base+"/v1/batch", batchReq), &batch)
	fmt.Printf("batch: %d variants (%d distinct computations), graph parsed once\n",
		batch.Summary.Variants, batch.Summary.Distinct)
	for _, row := range batch.Summary.Ranking {
		fmt.Printf("  #%d %-22s policy=%-14s mean %.4fs  %+6.1f%% vs baseline\n",
			row.Index, batch.Variants[row.Index].Label, row.Policy, row.MeanMakespan, row.DeltaVsBaselinePct)
	}
	for _, sc := range batch.Summary.Scenarios {
		fmt.Printf("  scenario %-22s best policy: %s\n", sc.Scenario, sc.BestPolicy)
	}
	fmt.Println()

	// 5. The cache's view of all that traffic.
	m := svc.Metrics()
	fmt.Printf("metrics: %d schedule requests, %d schedule builds, hit rate %.2f, p99 %.1fms\n",
		m.Requests["schedule"].Count, m.Builds.Schedules,
		m.Cache.Schedules.HitRate, m.Requests["schedule"].LatencySeconds.P99*1000)

	// 6. A 3-node fleet: each workload has one consistent-hash home node;
	// any node accepts any request and forwards non-owned keys to the
	// owner, so clients need no routing knowledge. cmd/tictacd wires the
	// same thing up from -fleet/-node-id/-peers flags (see docs/fleet.md).
	fmt.Println("\n--- 3-node fleet ---")
	fleetDemo(workload)
}

// fleetDemo stands up a 3-node fleet in-process and shows routing,
// forwarding and graceful drain.
func fleetDemo(workload tictac.ServiceWorkloadSpec) {
	const n = 3
	listeners := make([]net.Listener, n)
	members := make([]tictac.FleetMember, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		members[i] = tictac.FleetMember{
			ID:  fmt.Sprintf("node-%d", i),
			URL: "http://" + ln.Addr().String(),
		}
	}
	services := make([]*tictac.SchedulingService, n)
	for i, ln := range listeners {
		node, err := tictac.NewFleetNode(tictac.FleetConfig{
			Self: members[i].ID, Members: members,
		})
		if err != nil {
			log.Fatal(err)
		}
		services[i] = tictac.NewService(tictac.ServiceOptions{Fleet: node})
		srv := &http.Server{Handler: services[i].Handler()}
		go srv.Serve(ln)
		defer srv.Close()
	}

	// The same workload through every node returns byte-identical answers;
	// exactly one node (the key's home) builds the schedule, the others
	// forward. The X-Tictac-Via header on a relayed response names the
	// node that actually served it.
	req := tictac.ServiceScheduleRequest{Workload: workload}
	for _, m := range members {
		body, _ := json.Marshal(req)
		resp, err := http.Post(m.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		via := resp.Header.Get("X-Tictac-Via")
		if via == "" {
			via = m.ID + " (served locally)"
		}
		fmt.Printf("via %-7s -> served by %s\n", m.ID, via)
	}
	builds := 0
	for i, svc := range services {
		fm := svc.Metrics().Fleet
		b := svc.Metrics().Builds.Schedules
		builds += int(b)
		fmt.Printf("%s: %d schedule builds, %d forwarded-in, ring generation %d\n",
			members[i].ID, b, fm.ForwardedIn, fm.Generation)
	}
	fmt.Printf("total builds across the fleet: %d (one home node per workload)\n\n", builds)

	// Graceful drain: before a node exits it streams its hot entries'
	// workload specs to their new owners, which recompute deterministically
	// — byte-identical by the determinism contract. cmd/tictacd runs this
	// on SIGTERM.
	for i, svc := range services {
		if b := svc.Metrics().Builds.Schedules; b > 0 {
			report := svc.Drain(context.Background())
			fmt.Printf("drained %s: %d/%d entries streamed to successors\n",
				members[i].ID, report.Streamed, report.Entries)
			break
		}
	}
}

func postJSON(url string, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %d: %s", url, resp.StatusCode, payload)
	}
	return payload
}

func mustUnmarshal(payload []byte, v any) {
	if err := json.Unmarshal(payload, v); err != nil {
		log.Fatalf("%v: %s", err, payload)
	}
}
