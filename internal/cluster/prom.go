package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
)

// routeInst is one gateway route's instrumentation — the same shape the
// node-side server keeps, so dashboards read both with one query set.
type routeInst struct {
	route    string
	class    admit.Class
	hist     *admit.Histogram
	outcomes [3]atomic.Uint64 // indexed by admit.Outcome
}

// instrument wraps a gateway handler with the reused admission gate:
// proxied ingest is bulk (shed first with 429 + Retry-After), queries
// and the lease loop are interactive with the bounded wait queue.
func (g *Gateway) instrument(route string, class admit.Class, h http.HandlerFunc) http.HandlerFunc {
	ri := &routeInst{route: route, class: class, hist: admit.NewHistogram()}
	g.insts = append(g.insts, ri)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		res := g.ctl.Admit(r.Context(), class)
		if res.Outcome != admit.Admitted {
			ri.outcomes[res.Outcome].Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(res.RetryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests,
				"gateway %s overloaded (%s %s): retry later", route, class, res.Outcome)
			return
		}
		ri.outcomes[admit.Admitted].Add(1)
		defer g.ctl.Release(class)
		if r.Context().Err() != nil {
			return
		}
		h(w, r)
		ri.hist.Observe(time.Since(start))
	}
}

// handlePromMetrics is the gateway's GET /metrics/prom: Prometheus text
// exposition (0.0.4) of the gateway's own admission/latency state plus
// per-backend proxy health — requests, transport errors, liveness,
// up/down transitions and proxy latency quantiles per node.
func (g *Gateway) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	b.WriteString("# HELP taggate_requests_total Gateway requests by route, admission class and outcome.\n")
	b.WriteString("# TYPE taggate_requests_total counter\n")
	for _, ri := range g.insts {
		for o := admit.Admitted; o <= admit.TimedOut; o++ {
			fmt.Fprintf(&b, "taggate_requests_total{route=%q,class=%q,outcome=%q} %d\n",
				ri.route, ri.class.String(), o.String(), ri.outcomes[o].Load())
		}
	}

	b.WriteString("# HELP taggate_request_seconds Latency of admitted gateway requests, fan-out included.\n")
	b.WriteString("# TYPE taggate_request_seconds histogram\n")
	var buf [admit.HistBuckets + 1]uint64
	for _, ri := range g.insts {
		total := ri.hist.Cumulative(&buf)
		for i := 0; i < admit.HistBuckets; i++ {
			fmt.Fprintf(&b, "taggate_request_seconds_bucket{route=%q,le=%q} %d\n",
				ri.route, admit.PromFloat(admit.BucketBound(i)), buf[i])
		}
		fmt.Fprintf(&b, "taggate_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", ri.route, total)
		fmt.Fprintf(&b, "taggate_request_seconds_sum{route=%q} %s\n", ri.route, admit.PromFloat(ri.hist.Sum()))
		fmt.Fprintf(&b, "taggate_request_seconds_count{route=%q} %d\n", ri.route, total)
	}

	b.WriteString("# HELP taggate_request_quantile_seconds Upper-bound latency quantiles per gateway route.\n")
	b.WriteString("# TYPE taggate_request_quantile_seconds gauge\n")
	for _, ri := range g.insts {
		for _, pq := range admit.PromQuantiles {
			fmt.Fprintf(&b, "taggate_request_quantile_seconds{route=%q,q=%q} %s\n",
				ri.route, pq.Label, admit.PromFloat(ri.hist.Quantile(pq.Q)))
		}
	}

	b.WriteString("# HELP taggate_backend_up Backend liveness as seen by the health prober.\n")
	b.WriteString("# TYPE taggate_backend_up gauge\n")
	for _, be := range g.backends {
		up := 0
		if be.up.Load() {
			up = 1
		}
		fmt.Fprintf(&b, "taggate_backend_up{node=%q} %d\n", be.name, up)
	}
	b.WriteString("# HELP taggate_backend_requests_total Requests proxied to each backend.\n")
	b.WriteString("# TYPE taggate_backend_requests_total counter\n")
	for _, be := range g.backends {
		fmt.Fprintf(&b, "taggate_backend_requests_total{node=%q} %d\n", be.name, be.requests.Load())
	}
	b.WriteString("# HELP taggate_backend_errors_total Transport and 5xx failures per backend.\n")
	b.WriteString("# TYPE taggate_backend_errors_total counter\n")
	for _, be := range g.backends {
		fmt.Fprintf(&b, "taggate_backend_errors_total{node=%q} %d\n", be.name, be.errors.Load())
	}
	b.WriteString("# HELP taggate_backend_transitions_total Up/down liveness flips per backend (flapping tell).\n")
	b.WriteString("# TYPE taggate_backend_transitions_total counter\n")
	for _, be := range g.backends {
		fmt.Fprintf(&b, "taggate_backend_transitions_total{node=%q} %d\n", be.name, be.transitions.Load())
	}
	b.WriteString("# HELP taggate_backend_request_quantile_seconds Upper-bound proxy latency quantiles per backend.\n")
	b.WriteString("# TYPE taggate_backend_request_quantile_seconds gauge\n")
	for _, be := range g.backends {
		for _, pq := range admit.PromQuantiles {
			fmt.Fprintf(&b, "taggate_backend_request_quantile_seconds{node=%q,q=%q} %s\n",
				be.name, pq.Label, admit.PromFloat(be.hist.Quantile(pq.Q)))
		}
	}

	st := g.ctl.StatsSnapshot()
	b.WriteString("# HELP taggate_inflight Admitted gateway requests currently in flight.\n")
	b.WriteString("# TYPE taggate_inflight gauge\n")
	fmt.Fprintf(&b, "taggate_inflight{class=\"interactive\"} %d\n", st.Interactive.InFlight)
	fmt.Fprintf(&b, "taggate_inflight{class=\"bulk\"} %d\n", st.Bulk.InFlight)
	b.WriteString("# HELP taggate_queue_depth Interactive requests waiting for a slot.\n")
	b.WriteString("# TYPE taggate_queue_depth gauge\n")
	fmt.Fprintf(&b, "taggate_queue_depth %d\n", st.QueueDepth)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}
