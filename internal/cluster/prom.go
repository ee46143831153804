package cluster

import (
	"net/http"

	"incentivetag/internal/admit"
	"incentivetag/internal/server"
)

// handlePromMetrics is the gateway's GET /metrics/prom: the front's
// shared families under the taggate_ prefix plus per-backend proxy
// health — liveness, requests, transport errors, up/down transitions
// and proxy latency quantiles per node.
func (g *Gateway) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	g.ServeProm(w, func(p *server.Prom) {
		p.Family("backend_up", "gauge", "Backend liveness as seen by the health prober.")
		for _, be := range g.backends {
			up := 0
			if be.up.Load() {
				up = 1
			}
			p.Sample("backend_up{node=%q} %d", be.name, up)
		}
		p.Family("backend_requests_total", "counter", "Requests proxied to each backend.")
		for _, be := range g.backends {
			p.Sample("backend_requests_total{node=%q} %d", be.name, be.requests.Load())
		}
		p.Family("backend_errors_total", "counter", "Transport and 5xx failures per backend.")
		for _, be := range g.backends {
			p.Sample("backend_errors_total{node=%q} %d", be.name, be.errors.Load())
		}
		p.Family("backend_transitions_total", "counter", "Up/down liveness flips per backend (flapping tell).")
		for _, be := range g.backends {
			p.Sample("backend_transitions_total{node=%q} %d", be.name, be.transitions.Load())
		}
		p.Family("backend_request_quantile_seconds", "gauge", "Upper-bound proxy latency quantiles per backend.")
		for _, be := range g.backends {
			for _, pq := range admit.PromQuantiles {
				p.Sample("backend_request_quantile_seconds{node=%q,q=%q} %s", be.name, pq.Label, admit.PromFloat(be.hist.Quantile(pq.Q)))
			}
		}
	})
}
