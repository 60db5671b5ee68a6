package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tictac/internal/cache"
	"tictac/internal/service"
)

const (
	pathSchedule = "/v1/schedule"
	pathSimulate = "/v1/simulate"
	pathBatch    = "/v1/batch"
)

// client is the generator's only HTTP client.
var client = &http.Client{Timeout: 30 * time.Second}

// retryPause is the wait between failover attempts: a few health-probe
// intervals, so a dead member leaves every survivor's ring while the
// generator waits instead of burning its attempts.
const retryPause = 150 * time.Millisecond

// dialer sends logical requests to a target set. Several targets get
// round-robin, and a request that fails at the transport level or with a
// transient 503 fleet_unavailable retries on the other members before it
// counts as a failure, so killing a node mid-load must produce zero wrong
// answers and zero failures. A fleet answers the same bytes on every
// member, so failover never weakens the verification. One target gets a
// single try.
type dialer struct {
	targets []string
	next    atomic.Uint64
	retries atomic.Int64
}

func (d *dialer) do(method, path string, body []byte) (int, []byte, error) {
	start := int(d.next.Add(1) - 1)
	tries := 1
	if len(d.targets) > 1 {
		tries = 3 * len(d.targets)
	}
	var lastErr error
	for t := 0; t < tries; t++ {
		status, payload, err := doOnce(method, d.targets[(start+t)%len(d.targets)]+path, body)
		if err == nil && !(status == http.StatusServiceUnavailable && bytes.Contains(payload, []byte(service.CodeFleetUnavailable))) {
			return status, payload, nil
		}
		if err == nil {
			err = fmt.Errorf("status %d: %s", status, payload)
		}
		lastErr = err
		if t < tries-1 {
			d.retries.Add(1)
			time.Sleep(retryPause)
		}
	}
	return 0, nil, fmt.Errorf("all %d targets failed: %w", len(d.targets), lastErr)
}

func doOnce(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp.StatusCode, payload, err
}

// result POSTs body and returns the compacted "result" of a 200 answer and
// its "cached" flag; any other status is an error.
func (d *dialer) result(path string, body []byte) ([]byte, bool, error) {
	status, payload, err := d.do(http.MethodPost, path, body)
	if err != nil {
		return nil, false, err
	}
	if status != http.StatusOK {
		return nil, false, fmt.Errorf("%s status %d: %s", path, status, payload)
	}
	return resultOf(payload)
}

// resultOf extracts the compacted "result" and the "cached" flag of a
// response body. Compaction undoes the server's indentation, so equal
// results compare equal byte for byte.
func resultOf(payload []byte) ([]byte, bool, error) {
	var r struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, false, err
	}
	result, err := compact(r.Result)
	return result, r.Cached, err
}

func compact(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	err := json.Compact(&buf, raw)
	return buf.Bytes(), err
}

// marshal encodes a request value; plain request structs always encode.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("loadgen: " + err.Error())
	}
	return b
}

// verifier holds the reference answers. Each distinct (path, body) is
// served once on a fresh in-process service — the same handler, resolver
// and simulator as the daemon, with empty caches — and its result is kept
// for every later response to the same body.
type verifier struct {
	mu   sync.Mutex
	refs map[string]*reference
}

type reference struct {
	once   sync.Once
	result []byte
	err    error
}

func newVerifier() *verifier { return &verifier{refs: make(map[string]*reference)} }

// want returns the reference result for body POSTed to path.
func (v *verifier) want(path string, body []byte) ([]byte, error) {
	key := path + " " + string(body)
	v.mu.Lock()
	r := v.refs[key]
	if r == nil {
		r = &reference{}
		v.refs[key] = r
	}
	v.mu.Unlock()
	r.once.Do(func() {
		rec := httptest.NewRecorder()
		service.New(service.Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			r.err = fmt.Errorf("reference %s status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
			return
		}
		r.result, _, r.err = resultOf(rec.Body.Bytes())
	})
	return r.result, r.err
}

// NodeStats is one target's schedule-cache and fleet counters, as /metrics
// deltas over a run. HitRate is cache.Stats' definition: coalesced lookups
// count as hits.
type NodeStats struct {
	Node           string  `json:"node,omitempty"`
	Policy         string  `json:"policy,omitempty"`
	HitRate        float64 `json:"hit_rate"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	Coalesced      uint64  `json:"coalesced"`
	Evictions      uint64  `json:"evictions"`
	ScheduleBuilds uint64  `json:"schedule_builds"`
	ForwardedIn    uint64  `json:"forwarded_in"`
	ForwardedOut   uint64  `json:"forwarded_out"`
	Hedges         uint64  `json:"hedges"`
	Drained        uint64  `json:"drained"`
	Warmed         uint64  `json:"warmed"`
}

func (n *NodeStats) counters() []*uint64 {
	return []*uint64{&n.Hits, &n.Misses, &n.Coalesced, &n.Evictions, &n.ScheduleBuilds,
		&n.ForwardedIn, &n.ForwardedOut, &n.Hedges, &n.Drained, &n.Warmed}
}

// add sums o's counters into n; sub subtracts them. Both refresh HitRate.
func (n *NodeStats) add(o NodeStats) { n.merge(o, func(a, b uint64) uint64 { return a + b }) }
func (n *NodeStats) sub(o NodeStats) { n.merge(o, func(a, b uint64) uint64 { return a - b }) }

func (n *NodeStats) merge(o NodeStats, op func(a, b uint64) uint64) {
	theirs := o.counters()
	for i, c := range n.counters() {
		*c = op(*c, *theirs[i])
	}
	n.HitRate = cache.Stats{Hits: n.Hits, Misses: n.Misses, Coalesced: n.Coalesced}.HitRate()
}

// snapshot reads /metrics from every target; unreachable targets are left
// out of the map.
func snapshot(targets []string) map[string]NodeStats {
	out := make(map[string]NodeStats, len(targets))
	for _, t := range targets {
		status, payload, err := doOnce(http.MethodGet, t+"/metrics", nil)
		var m service.MetricsResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(payload, &m) != nil {
			continue
		}
		s := m.Cache.Schedules
		n := NodeStats{Policy: s.Policy, Hits: s.Hits, Misses: s.Misses, Coalesced: s.Coalesced, Evictions: s.Evictions, ScheduleBuilds: m.Builds.Schedules}
		if f := m.Fleet; f != nil {
			n.Node, n.ForwardedIn, n.Drained, n.Warmed = f.Node, f.ForwardedIn, f.Drained, f.Warmed
			for _, pv := range f.Members {
				n.ForwardedOut += pv.Forwarded
				n.Hedges += pv.Hedges
			}
		}
		out[t] = n
	}
	return out
}
