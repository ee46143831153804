package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/server"
)

// Health-probe cadence: ProbeInterval between probes of an up node; a
// down node is re-probed on the same base interval backed off by
// doubling per consecutive failure, capped at probeBackoffMax× — a dead
// node costs a connection attempt every few intervals, while a
// restarted one is readmitted within one-to-two base intervals.
const (
	DefaultProbeInterval = 1 * time.Second
	probeTimeout         = 2 * time.Second
	probeBackoffMax      = 8
)

// backend is one tagserved node as seen from the gateway: its identity,
// a liveness flag maintained by the prober (and reactively cleared by
// in-flight transport failures), and per-backend telemetry for
// /metrics/prom.
type backend struct {
	idx    int
	name   string
	url    string
	client *http.Client

	up           atomic.Bool
	consecFails  atomic.Uint64
	transitions  atomic.Uint64 // up/down flips, a flapping-node tell
	requests     atomic.Uint64 // proxied requests attempted
	errors       atomic.Uint64 // transport-level proxy failures
	hist         *admit.Histogram
	lastProbeErr atomic.Pointer[string]
}

func newBackend(idx int, n Node, client *http.Client) *backend {
	return &backend{idx: idx, name: n.Name, url: n.URL, client: client, hist: admit.NewHistogram()}
}

// setUp records a liveness transition (idempotent per state).
func (b *backend) setUp(up bool) {
	if b.up.Swap(up) != up {
		b.transitions.Add(1)
	}
}

// errBackendDown marks scatter legs skipped because the prober has the
// node down; callers degrade to partial results rather than failing.
var errBackendDown = fmt.Errorf("backend down")

// statusError is a non-2xx proxy answer with the node's decoded error
// message, so the gateway can relay status semantics (429, 409, 421...)
// instead of flattening everything to 502.
type statusError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, e.msg)
}

// do proxies one request to this backend: counts it, times it, decodes
// the JSON answer into out (unless nil), and converts failures into
// either a transport error (node marked down reactively — the prober
// re-admits it) or a *statusError carrying the node's own status code.
func (b *backend) do(ctx context.Context, method, path string, in, out any) error {
	body, err := encodeBody(path, in)
	if err != nil {
		return err
	}
	return b.send(ctx, method, path, body, out)
}

// encodeBody marshals a request body; nil stays nil (no body).
func encodeBody(path string, in any) ([]byte, error) {
	if in == nil {
		return nil, nil
	}
	buf, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("encoding %s body: %w", path, err)
	}
	return buf, nil
}

// send is do with the body already encoded (nil for none), so a scatter
// marshals its body once and hands every leg the same bytes.
func (b *backend) send(ctx context.Context, method, path string, body []byte, out any) error {
	b.requests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		// Transport failure: connection refused, reset, timeout. The node
		// is gone or wedged — mark it down now so the rest of this scatter
		// (and every request until the prober readmits it) skips it.
		b.errors.Add(1)
		b.setUp(false)
		return fmt.Errorf("%s %s%s: %w", method, b.name, path, err)
	}
	defer resp.Body.Close()
	b.hist.Observe(time.Since(start))
	if resp.StatusCode/100 != 2 {
		var e server.ErrorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if resp.StatusCode/100 == 5 {
			b.errors.Add(1)
		}
		return &statusError{status: resp.StatusCode, msg: e.Error, retryAfter: resp.Header.Get("Retry-After")}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		b.errors.Add(1)
		return fmt.Errorf("decoding %s %s%s: %w", method, b.name, path, err)
	}
	return nil
}

// probe asks the node's /healthz once. A node is up when it answers 200
// with ready=true; a 503 (recovering or overloaded-and-shedding) keeps
// it out of the scatter set until it recovers.
func (b *backend) probe(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := b.client.Do(req)
	if err != nil {
		msg := err.Error()
		b.lastProbeErr.Store(&msg)
		return false
	}
	defer resp.Body.Close()
	var h server.HealthResponse
	json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h)
	ok := resp.StatusCode == http.StatusOK && h.Ready
	if !ok {
		msg := fmt.Sprintf("healthz status %d ready=%v reason=%q", resp.StatusCode, h.Ready, h.Reason)
		b.lastProbeErr.Store(&msg)
	}
	return ok
}

// prober drives all backends' liveness: each gets its own goroutine
// probing at interval, doubling the wait per consecutive failure up to
// probeBackoffMax×. Stop via the context.
func (g *Gateway) prober(ctx context.Context, wg *sync.WaitGroup) {
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			t := time.NewTimer(0) // first probe immediately
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if b.probe(ctx) {
					b.consecFails.Store(0)
					b.setUp(true)
					t.Reset(g.probeInterval)
					continue
				}
				fails := b.consecFails.Add(1)
				b.setUp(false)
				backoff := uint64(1) << min(fails, 10)
				if backoff > probeBackoffMax {
					backoff = probeBackoffMax
				}
				t.Reset(time.Duration(backoff) * g.probeInterval)
			}
		}(b)
	}
}

// WaitReady blocks until every backend has been probed up, or ctx ends.
// Boot/test convenience: scatter-gather works with any subset up (it
// just flags partial), but e2e drivers want a fully-ready cluster.
func (g *Gateway) WaitReady(ctx context.Context) error {
	for {
		all := true
		for _, b := range g.backends {
			if !b.up.Load() {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for backends: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// retryAfterOr extracts a statusError's Retry-After seconds, defaulting
// when the node did not send one.
func retryAfterOr(e *statusError, def int) int {
	if s, err := strconv.Atoi(e.retryAfter); err == nil && s >= 1 {
		return s
	}
	return def
}
