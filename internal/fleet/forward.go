package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ForwardedHeader marks a request as already forwarded once. A receiving
// node always serves such a request locally — never re-forwards — so a
// membership disagreement between two nodes costs at most one extra hop,
// and the determinism contract (any node computes the same bytes) keeps
// the answer correct no matter which node ends up serving.
const ForwardedHeader = "X-Tictac-Forwarded"

// DefaultHedgeTimeout is how long a forward waits on the owner before it
// hedges to the next replica, unless NewForwarder is given another value.
const DefaultHedgeTimeout = 250 * time.Millisecond

// ErrNoTargets reports a forward with an empty target chain.
var ErrNoTargets = errors.New("fleet: no forward targets")

// ErrTooLarge reports an upstream answer longer than the forwarder relays.
// The upstream did answer, so this is not a transport failure: the
// forward neither tries the next target nor counts against the peer's
// health, and the caller should serve the request itself.
var ErrTooLarge = errors.New("fleet: forwarded answer exceeds the relay cap")

// ForwardResult is the upstream response a forward relays verbatim.
type ForwardResult struct {
	// Status and ContentType mirror the upstream response; Body is the
	// full upstream payload, relayed byte-for-byte.
	Status      int
	ContentType string
	Body        []byte
	// Via is the member that served, and Hedged reports whether a hedge
	// to the next replica was launched before this response arrived.
	Via    string
	Hedged bool
}

// Forwarder proxies non-owned requests to their owner with one hedged
// retry: if the owner has not answered within HedgeTimeout (or fails
// outright), the same request is sent to the next replica in the chain and
// the first response wins. Create with NewForwarder; safe for concurrent
// use.
type Forwarder struct {
	node         *Node
	client       *http.Client
	hedgeTimeout time.Duration
	maxBody      int64
}

// NewForwarder wires a forwarder to node. client nil selects a 5s-timeout
// client; hedgeTimeout <= 0 selects DefaultHedgeTimeout.
func NewForwarder(node *Node, client *http.Client, hedgeTimeout time.Duration) *Forwarder {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if hedgeTimeout <= 0 {
		hedgeTimeout = DefaultHedgeTimeout
	}
	return &Forwarder{node: node, client: client, hedgeTimeout: hedgeTimeout, maxBody: 8 << 20}
}

// HedgeTimeout returns how long a forward waits on the owner before it
// hedges.
func (f *Forwarder) HedgeTimeout() time.Duration { return f.hedgeTimeout }

// Forward relays (method, path, body) along the target chain and returns
// the first response. Any HTTP response — including an error status — is a
// success here and is relayed verbatim: the upstream answered, and its
// answer is the deterministic one. The one exception is an answer over the
// relay cap (8 MiB), which is never relayed truncated: Forward returns
// ErrTooLarge at once. Only transport failures advance the chain; a
// transport failure also feeds the owner's health state machine, so a
// dead peer is detected at forward speed rather than probe speed. Forward
// otherwise returns an error only when every target fails at the transport
// level (the caller's cue to answer 503 fleet_unavailable).
func (f *Forwarder) Forward(ctx context.Context, method, path string, body []byte, contentType string, targets []Member) (*ForwardResult, error) {
	if len(targets) == 0 {
		return nil, ErrNoTargets
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing attempt's request

	type attempt struct {
		res *ForwardResult
		err error
		idx int
	}
	ch := make(chan attempt, len(targets))
	launch := func(i int) {
		go func() {
			res, err := f.send(ctx, method, path, body, contentType, targets[i])
			ch <- attempt{res: res, err: err, idx: i}
		}()
	}

	launch(0)
	launched, pending := 1, 1
	hedged := false
	timer := time.NewTimer(f.hedgeTimeout)
	defer timer.Stop()
	var firstErr error
	for pending > 0 {
		select {
		case a := <-ch:
			pending--
			if a.err == nil {
				f.node.ReportForwardSuccess(targets[a.idx].ID)
				a.res.Via = targets[a.idx].ID
				a.res.Hedged = hedged
				return a.res, nil
			}
			if errors.Is(a.err, ErrTooLarge) {
				return nil, a.err
			}
			if !errors.Is(a.err, context.Canceled) {
				f.node.ReportForwardFailure(targets[a.idx].ID)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if launched < len(targets) {
				launch(launched)
				launched++
				pending++
			}
		case <-timer.C:
			if launched < len(targets) {
				// The owner is slow: hedge to the next replica and let
				// the two race.
				f.node.ReportHedge(targets[0].ID)
				hedged = true
				launch(launched)
				launched++
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("fleet: all %d forward targets failed: %w", len(targets), firstErr)
}

// send performs one forwarded request to m.
func (f *Forwarder) send(ctx context.Context, method, path string, body []byte, contentType string, m Member) (*ForwardResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(ForwardedHeader, f.node.Self().ID)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the cap to tell a full answer from a cut one.
	b, err := io.ReadAll(io.LimitReader(resp.Body, f.maxBody+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > f.maxBody {
		return nil, ErrTooLarge
	}
	return &ForwardResult{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        b,
	}, nil
}
