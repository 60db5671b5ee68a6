package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clientCount is the number of closed-loop clients, each on its own
// keep-alive connection: one per CPU, at most two, so the offered load is
// the same on any machine with two or more CPUs.
func clientCount() int {
	return min(2, runtime.NumCPU())
}

// newHTTPClient returns a client that holds one keep-alive connection per
// host.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// response is what the benchmark keeps of an HTTP response.
type response struct {
	status int
	body   []byte
	// via names the fleet member that served a forwarded request.
	via string
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, body: b, via: resp.Header.Get("X-Tictac-Via")}, nil
}

var (
	hitPrefix   = []byte(`{"cached":true,"result":`)
	missPrefix  = []byte(`{"cached":false,"result":`)
	frameSuffix = []byte("}\n")
)

// resultOf returns the deterministic bytes of a 200 response and whether
// the daemon served it from cache. Schedule and simulate responses carry a
// "cached" flag beside "result" that legitimately differs between a miss
// and a hit, so only "result" is compared; a batch response carries no
// such flag and is compared whole.
func resultOf(path string, body []byte) (result []byte, cached bool, err error) {
	if path == pathBatch {
		return body, false, nil
	}
	// The schedule hot path frames its cached payload with plain writes;
	// slicing it out keeps the client's CPU off the daemon's two cores.
	if bytes.HasSuffix(body, frameSuffix) {
		if bytes.HasPrefix(body, hitPrefix) {
			return body[len(hitPrefix) : len(body)-len(frameSuffix)], true, nil
		}
		if bytes.HasPrefix(body, missPrefix) {
			return body[len(missPrefix) : len(body)-len(frameSuffix)], false, nil
		}
	}
	var env struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, false, fmt.Errorf("decoding %s response: %w", path, err)
	}
	if len(env.Result) == 0 {
		return nil, false, fmt.Errorf("%s response has no result", path)
	}
	return env.Result, env.Cached, nil
}

// checker holds the first result seen for each request and reports any
// later response whose result differs from it: one request must always get
// the same bytes, whether it hit, missed, coalesced, followed an eviction
// or was forwarded.
type checker struct {
	mu    sync.Mutex
	first map[int][]byte
}

func newChecker() *checker { return &checker{first: make(map[int][]byte)} }

func (c *checker) check(req int, result []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.first[req]; ok {
		return bytes.Equal(f, result)
	}
	c.first[req] = result
	return true
}

// record is one request of a traced window.
type record struct {
	req        int
	start, end time.Duration // since the phase began
	cached     bool
}

// tally counts the operations a run attempted and the ones that failed:
// transport errors, non-200 responses and wrong bytes alike.
type tally struct {
	attempted, failed int
	failures          []string // the first few, for the report
}

// maxFailures bounds the failure messages a tally keeps.
const maxFailures = 5

func (t *tally) fail(err error) {
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, err.Error())
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, f)
		}
	}
}

// phase is the outcome of one closed-loop run.
type phase struct {
	tally
	start time.Time
	// done is the work of every successful request.
	done int
	// lat holds round trips in seconds, by endpoint, and latWindow the
	// window each completed in (the last for one that completed after the
	// phase; none in a set-up pass).
	lat       map[string][]float64
	latWindow map[string][]int
	// windowOps is the work completed in each window of a measured phase;
	// with tracing, odd windows are traced.
	windowOps []float64
	records   []record
}

// phaseConfig describes one closed-loop run.
type phaseConfig struct {
	target string
	w      *workload
	// list, when non-nil, is sent once in order (the set-up pass);
	// otherwise requests are drawn from w for windows × window.
	list    []int
	windows int
	window  time.Duration
	// trace records every request of the odd windows.
	trace bool
}

// runPhase sends requests from clientCount() clients, each waiting for its
// response before sending the next, and checks every response.
func runPhase(ctx context.Context, cfg phaseConfig, chk *checker) phase {
	var cursor atomic.Int64
	start := time.Now()
	total := time.Duration(cfg.windows) * cfg.window
	nextReq := func() (int, bool) {
		if cfg.list != nil {
			i := int(cursor.Add(1)) - 1
			if i >= len(cfg.list) {
				return 0, false
			}
			return cfg.list[i], true
		}
		if time.Since(start) >= total || ctx.Err() != nil {
			return 0, false
		}
		return cfg.w.next(), true
	}
	parts := make([]phase, clientCount())
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			p.lat = make(map[string][]float64)
			p.latWindow = make(map[string][]int)
			p.windowOps = make([]float64, cfg.windows)
			for {
				i, ok := nextReq()
				if !ok {
					return
				}
				rq := cfg.w.reqs[i]
				t0 := time.Since(start)
				resp, err := post(ctx, hc, cfg.target+rq.path, rq.body)
				t1 := time.Since(start)
				p.attempted++
				cached, err := verify(rq.path, i, resp, err, chk)
				if err != nil {
					p.fail(err)
					continue
				}
				p.lat[rq.path] = append(p.lat[rq.path], (t1 - t0).Seconds())
				p.done += rq.ops
				if cfg.list != nil {
					continue
				}
				k := int(t1 / cfg.window)
				if k < cfg.windows {
					p.windowOps[k] += float64(rq.ops)
				}
				p.latWindow[rq.path] = append(p.latWindow[rq.path], min(k, cfg.windows-1))
				if cfg.trace && int(t0/cfg.window)%2 == 1 {
					p.records = append(p.records, record{req: i, start: t0, end: t1, cached: cached})
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := phase{start: start, lat: make(map[string][]float64), latWindow: make(map[string][]int), windowOps: make([]float64, cfg.windows)}
	for _, p := range parts {
		out.add(p)
	}
	return out
}

// verify checks one response: no transport error, status 200, and a result
// equal to the first one seen for the request.
func verify(path string, req int, resp response, err error, chk *checker) (cached bool, _ error) {
	if err != nil {
		return false, fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.status != http.StatusOK {
		return false, fmt.Errorf("POST %s: status %d: %.200s", path, resp.status, resp.body)
	}
	result, cached, err := resultOf(path, resp.body)
	if err != nil {
		return false, err
	}
	if !chk.check(req, result) {
		return false, fmt.Errorf("POST %s: request %d returned different bytes than its first response", path, req)
	}
	return cached, nil
}

// add merges another client's share of the same phase into p.
func (p *phase) add(o phase) {
	p.merge(o.tally)
	p.done += o.done
	for path, l := range o.lat {
		p.lat[path] = append(p.lat[path], l...)
		p.latWindow[path] = append(p.latWindow[path], o.latWindow[path]...)
	}
	for k, v := range o.windowOps {
		p.windowOps[k] += v
	}
	p.records = append(p.records, o.records...)
}
