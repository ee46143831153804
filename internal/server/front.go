package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/admit"
)

// DefaultMaxBody bounds request bodies when Config.MaxBodyBytes is 0;
// a batch of a few thousand posts fits comfortably.
const DefaultMaxBody = 8 << 20

// Default connection timeouts: generous enough for a slow crowd-worker
// client on a bad link, tight enough that an abandoned connection frees
// its goroutine within the minute.
const (
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 30 * time.Second
	DefaultIdleTimeout  = 2 * time.Minute
)

// Front is the serving front tagserved's Server and taggate's
// cluster.Gateway both embed. It owns the route table and everything a
// request meets before its handler runs: the drain gate, the admission
// gate with per-route instrumentation, strict body decoding with the
// 413 counter, and the Prometheus families the two expositions share
// under their own prefix. Serve it through Handler or Serve/Shutdown.
type Front struct {
	prefix  string // metric family prefix, e.g. "tagserved"
	who     string // prepended to the 429 text: tells a gateway shed from a relayed node shed
	mux     *http.ServeMux
	ctl     *admit.Controller
	insts   []*routeInst
	maxBody int64

	draining     atomic.Bool
	bodyTooLarge atomic.Uint64

	mu sync.Mutex
	hs *http.Server
}

// NewFront builds an empty front whose metric families are named
// prefix_*; who prefixes its overload messages. maxBody caps request
// bodies (0 selects DefaultMaxBody).
func NewFront(prefix, who string, adm admit.Config, maxBody int64) (*Front, error) {
	if maxBody < 0 {
		return nil, fmt.Errorf("negative max body bytes %d", maxBody)
	}
	if maxBody == 0 {
		maxBody = DefaultMaxBody
	}
	return &Front{prefix: prefix, who: who, mux: http.NewServeMux(), ctl: admit.NewController(adm), maxBody: maxBody}, nil
}

// Handle registers an ops route. Ops routes bypass admission: they must
// answer precisely when the front is overloaded.
func (f *Front) Handle(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// routeInst is one serving route's instrumentation: admission outcome
// counters and a latency histogram of admitted requests, measured from
// arrival (queue wait included — that is the latency the client felt).
type routeInst struct {
	labels   string // route="…",class="…"
	hist     *admit.Histogram
	outcomes [3]atomic.Uint64 // indexed by admit.Outcome
}

// HandleAdmitted registers a serving route behind the admission gate:
// bulk is token-bucketed and shed first, interactive gets a bounded
// queue wait, rejected requests get 429 + Retry-After derived from the
// bucket's refill, and admitted requests are timed into the route's
// histogram. The route label is the pattern's path.
func (f *Front) HandleAdmitted(pattern string, class admit.Class, h http.HandlerFunc) {
	_, route, _ := strings.Cut(pattern, " ")
	ri := &routeInst{labels: fmt.Sprintf("route=%q,class=%q", route, class), hist: admit.NewHistogram()}
	f.insts = append(f.insts, ri)
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		res := f.ctl.Admit(r.Context(), class)
		if res.Outcome != admit.Admitted {
			ri.outcomes[res.Outcome].Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(res.RetryAfterSeconds()))
			WriteError(w, http.StatusTooManyRequests,
				"%s%s overloaded (%s %s): retry later", f.who, route, class, res.Outcome)
			return
		}
		ri.outcomes[admit.Admitted].Add(1)
		defer f.ctl.Release(class)
		// The client may have hung up while we queued; skip the work, the
		// response has nobody to read it.
		if r.Context().Err() != nil {
			return
		}
		h(w, r)
		ri.hist.Observe(time.Since(start))
	})
}

// ServeHTTP is the drain gate in front of the route table: once
// Shutdown begins, every request except /healthz gets an immediate 503
// — no new work starts while in-flight requests finish, and a probe can
// still see the draining state.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() && r.URL.Path != "/healthz" {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	f.mux.ServeHTTP(w, r)
}

// Handler returns the gated route table.
func (f *Front) Handler() http.Handler { return f }

// httpServer builds the net/http server with every slow-client bound.
func (f *Front) httpServer() *http.Server {
	return &http.Server{
		Handler:           f,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       DefaultReadTimeout,
		WriteTimeout:      DefaultWriteTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
}

// Serve serves on l until Shutdown (which returns http.ErrServerClosed
// here) or a listener error.
func (f *Front) Serve(l net.Listener) error {
	f.mu.Lock()
	if f.hs != nil {
		f.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	hs := f.httpServer()
	f.hs = hs
	f.mu.Unlock()
	return hs.Serve(l)
}

// Shutdown gracefully stops serving: the drain gate closes FIRST (new
// requests on still-open keep-alive connections get a fast 503 instead
// of starting work that races the owner's teardown), then in-flight
// requests finish (bounded by ctx) and new connections are refused.
// Whatever the front serves — a Service, a prober — is not stopped; the
// owner stops it after Shutdown returns, which is what makes a node's
// WAL flush strictly after the last request's write.
func (f *Front) Shutdown(ctx context.Context) error {
	f.draining.Store(true)
	f.mu.Lock()
	hs := f.hs
	f.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

// ReadJSON decodes the request body strictly (unknown fields rejected —
// they are almost always a client schema bug worth failing loudly on).
// Bodies over the cap get a distinct 413 so clients can tell "split
// your batch" apart from "fix your schema". ok=false means the error
// response was already written.
func (f *Front) ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			f.bodyTooLarge.Add(1)
			WriteError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes; split the batch", mbe.Limit)
			return false
		}
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with an ErrorResponse body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxK caps k on every query route, cluster legs included: k sizes the
// result, so an unbounded one lets a single request exhaust memory.
const maxK = 1000

// checkK answers 400 and returns false unless k is in [1,maxK].
func checkK(w http.ResponseWriter, k int) bool {
	if k <= 0 || k > maxK {
		WriteError(w, http.StatusBadRequest, "k must be in [1,%d]", maxK)
		return false
	}
	return true
}

// ParseK reads the optional k parameter (default 10, bounded [1,maxK]);
// ok=false means the error response was already written.
func ParseK(w http.ResponseWriter, q url.Values) (int, bool) {
	k := 10
	if ks := q.Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil {
			k = 0 // rejected below with the range message
		}
	}
	return k, checkK(w, k)
}

// ParseResource reads the required integer resource parameter; ok=false
// means the error response was already written.
func ParseResource(w http.ResponseWriter, q url.Values) (int, bool) {
	rs := q.Get("resource")
	if rs == "" {
		WriteError(w, http.StatusBadRequest, "missing resource parameter")
		return 0, false
	}
	i, err := strconv.Atoi(rs)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "resource %q is not an integer", rs)
		return 0, false
	}
	return i, true
}

// parseTags reads the required comma-separated tags parameter as a
// normalized (deduplicated, sorted) post; ok=false means the error
// response was already written.
func parseTags(w http.ResponseWriter, q url.Values) (incentivetag.Post, bool) {
	ts := q.Get("tags")
	if ts == "" {
		WriteError(w, http.StatusBadRequest, "missing tags parameter (comma-separated tag ids)")
		return nil, false
	}
	parts := strings.Split(ts, ",")
	ids := make([]incentivetag.Tag, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		id, err := strconv.Atoi(part)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "tag %q is not an integer id", part)
			return nil, false
		}
		ids = append(ids, incentivetag.Tag(id))
	}
	query, err := incentivetag.NewPost(ids...)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return query, true
}

// Prom is a Prometheus text exposition (format 0.0.4) whose family
// names all carry the front's prefix.
type Prom struct {
	b      strings.Builder
	prefix string
}

// Family writes a family's HELP and TYPE lines.
func (p *Prom) Family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", p.prefix, name, help, p.prefix, name, typ)
}

// Sample writes one sample line; format starts at the family name,
// after the prefix.
func (p *Prom) Sample(format string, args ...any) {
	p.b.WriteString(p.prefix)
	p.b.WriteByte('_')
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

// Metric writes a family holding one unlabelled sample.
func (p *Prom) Metric(name, typ, help string, v any) {
	p.Family(name, typ, help)
	p.Sample("%s %v", name, v)
}

// ServeProm answers a /metrics/prom scrape: the shared families —
// per-route outcome counters, latency histograms and quantile gauges,
// admission gauges and limits, the drain flag and the 413 counter —
// then whatever extra appends (nil for none).
func (f *Front) ServeProm(w http.ResponseWriter, extra func(*Prom)) {
	p := &Prom{prefix: f.prefix}
	p.Family("requests_total", "counter", "Requests by route, admission class and outcome.")
	for _, ri := range f.insts {
		for o := admit.Admitted; o <= admit.TimedOut; o++ {
			p.Sample("requests_total{%s,outcome=%q} %d", ri.labels, o, ri.outcomes[o].Load())
		}
	}

	// Cumulative "le" buckets plus _sum and _count.
	p.Family("request_seconds", "histogram", "Latency of admitted requests, queue wait included.")
	var buf [admit.HistBuckets + 1]uint64
	for _, ri := range f.insts {
		total := ri.hist.Cumulative(&buf)
		for i := 0; i < admit.HistBuckets; i++ {
			p.Sample("request_seconds_bucket{%s,le=%q} %d", ri.labels, admit.PromFloat(admit.BucketBound(i)), buf[i])
		}
		p.Sample("request_seconds_bucket{%s,le=\"+Inf\"} %d", ri.labels, total)
		p.Sample("request_seconds_sum{%s} %s", ri.labels, admit.PromFloat(ri.hist.Sum()))
		p.Sample("request_seconds_count{%s} %d", ri.labels, total)
	}

	// Upper-bound estimates from the log buckets, so a dashboard gets
	// p50/p90/p99 without running histogram_quantile.
	p.Family("request_quantile_seconds", "gauge", "Upper-bound latency quantiles per route.")
	for _, ri := range f.insts {
		for _, pq := range admit.PromQuantiles {
			p.Sample("request_quantile_seconds{%s,q=%q} %s", ri.labels, pq.Label, admit.PromFloat(ri.hist.Quantile(pq.Q)))
		}
	}

	st := f.ctl.StatsSnapshot()
	p.Family("inflight", "gauge", "Admitted requests currently in flight.")
	p.Sample("inflight{class=\"interactive\"} %d", st.Interactive.InFlight)
	p.Sample("inflight{class=\"bulk\"} %d", st.Bulk.InFlight)
	p.Metric("queue_depth", "gauge", "Interactive requests waiting for a slot.", st.QueueDepth)
	p.Metric("queue_limit", "gauge", "Interactive wait-queue capacity.", st.QueueCap)
	p.Metric("inflight_limit", "gauge", "Concurrency limit (0 = unlimited).", st.MaxInFlight)
	draining := 0
	if f.draining.Load() {
		draining = 1
	}
	p.Metric("draining", "gauge", "1 while the server refuses new work during shutdown.", draining)
	p.Metric("body_too_large_total", "counter", "Requests refused with 413.", f.bodyTooLarge.Load())
	if extra != nil {
		extra(p)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, p.b.String())
}
