package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incentivetag/internal/admit"
	"incentivetag/internal/server"
)

// Config assembles a Gateway.
type Config struct {
	// Map is the validated cluster membership. Required.
	Map *Map
	// Admission configures the gateway's own overload control, reusing
	// the node-side middleware: proxied ingest is the bulk class (shed
	// first with 429 + Retry-After), queries and the lease loop are
	// interactive. The zero value admits everything.
	Admission admit.Config
	// MaxBodyBytes caps proxied request bodies (0 = server.DefaultMaxBody).
	MaxBodyBytes int64
	// ProbeInterval is the per-backend /healthz cadence
	// (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// Transport overrides the backend HTTP transport (tests); nil selects
	// the gateway's shared keep-alive pool.
	Transport http.RoundTripper
}

// backendIdlePerHost is how many idle keep-alive connections the
// gateway keeps to each node: enough for every leg of a burst of
// concurrent queries to find one waiting.
const backendIdlePerHost = 64

// backendTransport is the gateway's connection pool to its nodes unless
// Config.Transport overrides it. http.DefaultTransport keeps only 2 idle
// connections per host, so under concurrent queries most scatter legs
// would dial a fresh connection and then drop it. The total idle cap
// is lifted; the per-host cap bounds it.
var backendTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0
	t.MaxIdleConnsPerHost = backendIdlePerHost
	return t
}()

// Gateway is the cluster front-end: it owns the ring, the per-backend
// clients and the health prober, and serves the same public surface as
// a single tagserved node — /ingest routed to each post's owner,
// /topk and /search scatter-gathered and merged bit-identically, merged
// /metrics, plus cluster-only /owner. Create with New, start the prober
// with Start, serve through the embedded server.Front (Handler or
// Serve/Shutdown), then Stop the prober.
type Gateway struct {
	*server.Front
	m        *Map
	ring     *Ring
	mapHash  string
	backends []*backend

	probeInterval time.Duration
	probeCancel   context.CancelFunc
	probeWG       sync.WaitGroup

	rr atomic.Uint64 // allocate round-robin cursor
}

// New validates the configuration and builds the route table. The
// prober is not running yet — call Start (all backends count as down
// until their first successful probe).
func New(cfg Config) (*Gateway, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: nil shard map")
	}
	if err := cfg.Map.validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	f, err := server.NewFront("taggate", "gateway ", cfg.Admission, cfg.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	g := &Gateway{
		Front:         f,
		m:             cfg.Map,
		ring:          cfg.Map.Ring(),
		mapHash:       cfg.Map.Hash(),
		probeInterval: cfg.ProbeInterval,
	}
	if g.probeInterval <= 0 {
		g.probeInterval = DefaultProbeInterval
	}
	rt := cfg.Transport
	if rt == nil {
		rt = backendTransport
	}
	client := &http.Client{Transport: rt, Timeout: 30 * time.Second}
	for i, n := range cfg.Map.Nodes {
		g.backends = append(g.backends, newBackend(i, n, client))
	}
	g.HandleAdmitted("POST /ingest", admit.Bulk, g.handleIngest)
	g.HandleAdmitted("GET /topk", admit.Interactive, g.handleTopK)
	g.HandleAdmitted("GET /search", admit.Interactive, g.handleSearch)
	g.HandleAdmitted("POST /allocate", admit.Interactive, g.handleAllocate)
	g.HandleAdmitted("POST /complete", admit.Interactive, g.handleComplete)
	g.HandleAdmitted("POST /expire", admit.Interactive, g.handleExpire)
	g.Handle("GET /metrics", g.handleMetrics)
	g.Handle("GET /metrics/prom", g.handlePromMetrics)
	g.Handle("GET /info", g.handleInfo)
	g.Handle("GET /healthz", g.handleHealthz)
	g.Handle("GET /owner", g.handleOwner)
	return g, nil
}

// Start launches the background health prober.
func (g *Gateway) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	g.prober(ctx, &g.probeWG)
}

// Stop halts the prober and waits for its goroutines.
func (g *Gateway) Stop() {
	if g.probeCancel != nil {
		g.probeCancel()
		g.probeWG.Wait()
		g.probeCancel = nil
	}
}

// MapHash exposes the placement fingerprint (logged at boot, asserted
// in tests).
func (g *Gateway) MapHash() string { return g.mapHash }

// --- wire types -----------------------------------------------------------

// TopKResponse is the gateway's merged /topk answer. Epoch is the sum
// of the per-node epochs in Epochs (each node's epoch counts the posts
// it absorbed, posts land only on their owner, so the sum plays the
// same "index version" role the single-node epoch does). Partial is
// true when at least one node's partial ranking is missing — the top
// list is then a lower bound, served with 200 rather than failing the
// whole query for one dead shard.
type TopKResponse struct {
	Resource int                `json:"resource"`
	Epoch    uint64             `json:"epoch"`
	Epochs   map[string]uint64  `json:"epochs"`
	Partial  bool               `json:"partial"`
	Top      []server.TopKEntry `json:"top"`
}

// SearchResponse is the gateway's merged /search answer; fields as in
// TopKResponse.
type SearchResponse struct {
	Tags    []int32            `json:"tags"`
	Epoch   uint64             `json:"epoch"`
	Epochs  map[string]uint64  `json:"epochs"`
	Partial bool               `json:"partial"`
	Top     []server.TopKEntry `json:"top"`
}

// MetricsResponse is the gateway's merged /metrics. Counters that
// partition cleanly across owners — posts, spent, wasted posts, the
// lease census, budget accounting — are exact cluster-wide sums.
// Quality aggregates (mean_quality, quality_sum, over/under-tagged) do
// NOT partition: every node computes them over the full corpus with
// non-owned resources at their primed baseline, so the gateway reports
// the mean across live nodes (a baseline-damped view) and the exact
// per-node values under Nodes.
type MetricsResponse struct {
	Epoch   uint64            `json:"epoch"`
	Epochs  map[string]uint64 `json:"epochs"`
	Partial bool              `json:"partial"`

	Posts       int     `json:"posts"`
	Spent       int     `json:"spent"`
	WastedPosts int     `json:"wasted_posts"`
	MeanQuality float64 `json:"mean_quality"`

	LeasesIssued      uint64 `json:"leases_issued"`
	LeasesOutstanding int    `json:"leases_outstanding"`
	LeasesFulfilled   uint64 `json:"leases_fulfilled"`
	LeasesExpired     uint64 `json:"leases_expired"`

	AllocatedSpent  int `json:"allocated_spent"`
	RemainingBudget int `json:"remaining_budget"` // -1 = any node unlimited

	// Memory-tiering census. Residency partitions cleanly — each node
	// tiers only the resources it holds — so counts, transition counters
	// and resident bytes are exact cluster-wide sums; the rehydrate p99
	// is the max across live nodes (the worst tail a query can hit).
	ResidentResources int     `json:"resident_resources"`
	ColdResources     int     `json:"cold_resources"`
	Evictions         uint64  `json:"evictions"`
	Rehydrations      uint64  `json:"rehydrations"`
	ResidentBytes     int64   `json:"resident_bytes"`
	RehydrateP99      float64 `json:"rehydrate_p99_seconds"`

	Nodes map[string]server.MetricsResponse `json:"nodes"`
}

// InfoResponse is the gateway's /info: the corpus shape (identical on
// every node — all boot the same primed dataset) read from one live
// node, plus the cluster topology.
type InfoResponse struct {
	N           int         `json:"n"`
	TagUniverse int         `json:"tag_universe"`
	Strategy    string      `json:"strategy"`
	Budget      int         `json:"budget"`
	Ready       bool        `json:"ready"`
	Cluster     ClusterInfo `json:"cluster"`
}

// ClusterInfo describes the gateway's view of the cluster.
type ClusterInfo struct {
	Nodes   int    `json:"nodes"`
	Up      int    `json:"up"`
	VNodes  int    `json:"vnodes"`
	MapHash string `json:"map_hash"`
}

// NodeHealth is one backend's liveness in /healthz.
type NodeHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Up   bool   `json:"up"`
}

// HealthResponse is the gateway's /healthz: Ready when every backend
// is up, Degraded when the gateway is serving partial results because
// at least one is down.
type HealthResponse struct {
	Ready    bool         `json:"ready"`
	Degraded bool         `json:"degraded"`
	Nodes    []NodeHealth `json:"nodes"`
}

// OwnerResponse answers /owner?resource=i: where the ring places a
// resource (CI and operators use it to aim requests at a known shard).
type OwnerResponse struct {
	Resource int    `json:"resource"`
	Node     string `json:"node"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
}

// --- helpers --------------------------------------------------------------

// relayStatus forwards a backend's non-2xx answer (message, status and
// — for 429 — Retry-After) to the gateway's client.
func relayStatus(w http.ResponseWriter, e *statusError) {
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterOr(e, 1)))
	}
	server.WriteError(w, e.status, "%s", e.msg)
}

// upBackends snapshots the currently-live scatter set.
func (g *Gateway) upBackends() []*backend {
	up := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.up.Load() {
			up = append(up, b)
		}
	}
	return up
}

// leg is one backend's successful answer to a scatter.
type leg[T any] struct {
	name string
	resp T
}

// scatter sends one request to every backend in up concurrently and
// returns the answers of the legs that succeeded, in up's order, plus
// the first node status error among the legs that failed. The body is
// marshalled once and every leg sends the same bytes.
func scatter[T any](ctx context.Context, up []*backend, method, path string, in any) ([]leg[T], *statusError) {
	body, err := encodeBody(path, in)
	if err != nil {
		return nil, nil // no leg could have been sent
	}
	legs := make([]leg[T], len(up))
	errs := make([]error, len(up))
	var wg sync.WaitGroup
	for i, b := range up {
		wg.Add(1)
		go func() {
			defer wg.Done()
			legs[i].name = b.name
			errs[i] = b.send(ctx, method, path, body, &legs[i].resp)
		}()
	}
	wg.Wait()
	var failed *statusError
	answered := legs[:0]
	for i, l := range legs {
		if errs[i] == nil {
			answered = append(answered, l)
		} else if failed == nil {
			errors.As(errs[i], &failed)
		}
	}
	return answered, failed
}

// mergeLegs folds the answered legs of a query scatter: each node's
// epoch, the epochs' sum, and the per-node partial rankings merged under
// the engine's strict total order — score descending, id ascending —
// and truncated to k. Every score was computed on its owner node with
// bit-identical float expressions, and resource ids are globally
// unique, so this sort is exactly the single-node selector's order and
// the merged prefix equals the single-node top-k (see
// internal/ir/cluster.go for the argument).
func mergeLegs[T any](legs []leg[T], k int, part func(*T) (uint64, []server.TopKEntry)) (epochs map[string]uint64, epoch uint64, top []server.TopKEntry) {
	epochs = make(map[string]uint64, len(legs))
	top = []server.TopKEntry{} // render as [] not null, like the nodes do
	for i := range legs {
		e, t := part(&legs[i].resp)
		epochs[legs[i].name] = e
		epoch += e
		top = append(top, t...)
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Score != top[j].Score {
			return top[i].Score > top[j].Score
		}
		return top[i].Resource < top[j].Resource
	})
	if len(top) > k {
		top = top[:k]
	}
	return epochs, epoch, top
}

// --- ingest ---------------------------------------------------------------

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req server.IngestRequest
	if !g.ReadJSON(w, r, &req) {
		return
	}
	single := len(req.Tags) > 0
	if single == (len(req.Events) > 0) {
		server.WriteError(w, http.StatusBadRequest, "provide either resource+tags or events, not both or neither")
		return
	}
	if single {
		g.ingestOne(w, r, &req)
		return
	}
	g.ingestBatch(w, r, req.Events)
}

// ingestOne proxies a single post to its owner, relaying the node's
// status verbatim — the gateway adds routing, not new semantics.
func (g *Gateway) ingestOne(w http.ResponseWriter, r *http.Request, req *server.IngestRequest) {
	b := g.backends[g.ring.Owner(req.Resource)]
	if !b.up.Load() {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable,
			"owner node %q for resource %d is down", b.name, req.Resource)
		return
	}
	var out server.IngestResponse
	err := b.do(r.Context(), http.MethodPost, "/ingest", req, &out)
	var se *statusError
	if errors.As(err, &se) {
		relayStatus(w, se)
		return
	}
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "owner node %q: %v", b.name, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// ingestBatch splits a batch by owner (per-resource order preserved —
// the engine's state is a per-resource aggregate, so cross-resource
// reordering cannot change the outcome) and forwards the sub-batches
// concurrently. All-shed batches relay 429 so the client's backoff
// still works through the gateway; a sub-batch failure after others
// succeeded is reported as 502 with the exact ingested count, because
// a blind client retry would double-ingest the successful shards.
func (g *Gateway) ingestBatch(w http.ResponseWriter, r *http.Request, events []server.IngestEvent) {
	byOwner := make(map[int][]server.IngestEvent)
	for _, ev := range events {
		o := g.ring.Owner(ev.Resource)
		byOwner[o] = append(byOwner[o], ev)
	}
	type result struct {
		b        *backend
		n        int
		ingested int
		err      error
	}
	results := make([]result, 0, len(byOwner))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for o, evs := range byOwner {
		b := g.backends[o]
		wg.Add(1)
		go func(b *backend, evs []server.IngestEvent) {
			defer wg.Done()
			res := result{b: b, n: len(evs)}
			if !b.up.Load() {
				res.err = errBackendDown
			} else {
				var out server.IngestResponse
				res.err = b.do(r.Context(), http.MethodPost, "/ingest", server.IngestRequest{Events: evs}, &out)
				if res.err == nil {
					res.ingested = out.Ingested
				}
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(b, evs)
	}
	wg.Wait()

	ingested, failed, retryAfter := 0, 0, 0
	allShed := true
	var firstErr error
	for _, res := range results {
		if res.err == nil {
			ingested += res.ingested
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("node %q (%d events): %w", res.b.name, res.n, res.err)
		}
		var se *statusError
		if errors.As(res.err, &se) && se.status == http.StatusTooManyRequests {
			if ra := retryAfterOr(se, 1); ra > retryAfter {
				retryAfter = ra
			}
		} else {
			allShed = false
		}
	}
	switch {
	case failed == 0:
		server.WriteJSON(w, http.StatusOK, server.IngestResponse{Ingested: ingested})
	case ingested == 0 && allShed:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		server.WriteError(w, http.StatusTooManyRequests, "all owner nodes shed the batch: retry later")
	default:
		server.WriteError(w, http.StatusBadGateway,
			"partial ingest: %d of %d events ingested, %d sub-batches failed; do not blindly retry (successful shards would double-ingest); first failure: %v",
			ingested, len(events), failed, firstErr)
	}
}

// --- queries --------------------------------------------------------------

func (g *Gateway) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	resource, ok := server.ParseResource(w, q)
	if !ok {
		return
	}
	k, ok := server.ParseK(w, q)
	if !ok {
		return
	}

	// Phase 1: the subject's live count vector exists only on its owner
	// node. Without it there is no query to scatter, so a down owner is
	// the one case /topk answers 503 instead of degrading to partial.
	owner := g.backends[g.ring.Owner(resource)]
	if !owner.up.Load() {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable,
			"resource %d's owner node %q is down; top-k needs the subject vector", resource, owner.name)
		return
	}
	var rfd server.RFDResponse
	err := owner.do(r.Context(), http.MethodGet,
		"/cluster/rfd?resource="+strconv.Itoa(resource)+"&maphash="+g.mapHash, nil, &rfd)
	var se *statusError
	if errors.As(err, &se) {
		relayStatus(w, se)
		return
	}
	if err != nil {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "owner node %q: %v", owner.name, err)
		return
	}

	// Phase 2: scatter the explicit weighted query to every live node
	// (the owner included — it ranks the other resources it owns).
	req := server.ClusterTopKRequest{
		MapHash: g.mapHash,
		Exclude: resource,
		QNorm2:  rfd.Norm2,
		K:       k,
		Entries: rfd.Entries,
	}
	legs, _ := scatter[server.ClusterTopKResponse](r.Context(), g.upBackends(), http.MethodPost, "/cluster/topk", req)
	if len(legs) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends answered the scatter")
		return
	}
	epochs, epoch, top := mergeLegs(legs, k, func(l *server.ClusterTopKResponse) (uint64, []server.TopKEntry) { return l.Epoch, l.Top })
	server.WriteJSON(w, http.StatusOK, TopKResponse{
		Resource: resource,
		Epoch:    epoch,
		Epochs:   epochs,
		Partial:  len(legs) < len(g.backends),
		Top:      top,
	})
}

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ts := q.Get("tags")
	if ts == "" {
		server.WriteError(w, http.StatusBadRequest, "missing tags parameter (comma-separated tag ids)")
		return
	}
	k, ok := server.ParseK(w, q)
	if !ok {
		return
	}
	up := g.upBackends()
	if len(up) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	path := "/cluster/search?tags=" + url.QueryEscape(ts) +
		"&k=" + strconv.Itoa(k) + "&maphash=" + g.mapHash
	legs, failed := scatter[server.SearchResponse](r.Context(), up, http.MethodGet, path, nil)
	if len(legs) == 0 {
		// Every leg failed the same way a single node would have (e.g. a
		// malformed tag list is a 400 on all of them): relay that instead
		// of masking a client error as a gateway outage.
		if failed != nil {
			relayStatus(w, failed)
			return
		}
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends answered the scatter")
		return
	}
	epochs, epoch, top := mergeLegs(legs, k, func(l *server.SearchResponse) (uint64, []server.TopKEntry) { return l.Epoch, l.Top })
	server.WriteJSON(w, http.StatusOK, SearchResponse{
		Tags:    legs[0].resp.Tags,
		Epoch:   epoch,
		Epochs:  epochs,
		Partial: len(legs) < len(g.backends),
		Top:     top,
	})
}

// --- lease loop -----------------------------------------------------------

// leaseNodeShift packs the owning backend's index into the high bits of
// a gateway lease id: node lease counters are small monotonic integers,
// so 48 bits of headroom is beyond any plausible lifetime, and the
// gateway stays stateless — /complete and /expire decode the node from
// the id itself.
const leaseNodeShift = 48

func encodeLease(node int, lease uint64) (uint64, bool) {
	if lease >= 1<<leaseNodeShift {
		return 0, false
	}
	return uint64(node+1)<<leaseNodeShift | lease, true
}

func (g *Gateway) decodeLease(l uint64) (*backend, uint64, bool) {
	node := int(l>>leaseNodeShift) - 1
	if node < 0 || node >= len(g.backends) {
		return nil, 0, false
	}
	return g.backends[node], l & (1<<leaseNodeShift - 1), true
}

// handleAllocate leases a task from one shard, round-robin across live
// nodes. Each node's allocator is masked to the resources it owns, so
// any node's answer is a valid cluster-wide allocation; a node with
// nothing allocatable (ok=false) or shedding (429) just moves the
// cursor to the next. ok=false only after every live node declined.
func (g *Gateway) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req server.AllocateRequest
	if !g.ReadJSON(w, r, &req) {
		return
	}
	up := g.upBackends()
	if len(up) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	start := int(g.rr.Add(1))
	allShed, retryAfter := true, 0
	for i := 0; i < len(up); i++ {
		b := up[(start+i)%len(up)]
		var out server.AllocateResponse
		err := b.do(r.Context(), http.MethodPost, "/allocate", req, &out)
		var se *statusError
		if errors.As(err, &se) && se.status == http.StatusTooManyRequests {
			if ra := retryAfterOr(se, 1); ra > retryAfter {
				retryAfter = ra
			}
			continue
		}
		if err != nil {
			allShed = false
			continue
		}
		allShed = false
		if !out.OK {
			continue
		}
		lease, fit := encodeLease(b.idx, out.Lease)
		if !fit {
			server.WriteError(w, http.StatusInternalServerError,
				"node %q lease id %d overflows the gateway's routing bits", b.name, out.Lease)
			return
		}
		out.Lease = lease
		server.WriteJSON(w, http.StatusOK, out)
		return
	}
	if allShed && retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		server.WriteError(w, http.StatusTooManyRequests, "all nodes shed the allocation: retry later")
		return
	}
	server.WriteJSON(w, http.StatusOK, server.AllocateResponse{OK: false})
}

func (g *Gateway) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req server.CompleteRequest
	if !g.ReadJSON(w, r, &req) {
		return
	}
	b, inner, ok := g.decodeLease(req.Lease)
	if !ok {
		server.WriteError(w, http.StatusBadRequest, "lease %d does not decode to a cluster node", req.Lease)
		return
	}
	req.Lease = inner
	g.settle(w, r, b, "/complete", req)
}

func (g *Gateway) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req server.ExpireRequest
	if !g.ReadJSON(w, r, &req) {
		return
	}
	b, inner, ok := g.decodeLease(req.Lease)
	if !ok {
		server.WriteError(w, http.StatusBadRequest, "lease %d does not decode to a cluster node", req.Lease)
		return
	}
	req.Lease = inner
	g.settle(w, r, b, "/expire", req)
}

// settle forwards a lease settlement to the node that issued it.
func (g *Gateway) settle(w http.ResponseWriter, r *http.Request, b *backend, path string, req any) {
	if !b.up.Load() {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "node %q holding the lease is down", b.name)
		return
	}
	var out server.OKResponse
	err := b.do(r.Context(), http.MethodPost, path, req, &out)
	var se *statusError
	if errors.As(err, &se) {
		relayStatus(w, se)
		return
	}
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "node %q: %v", b.name, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// --- ops ------------------------------------------------------------------

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	up := g.upBackends()
	if len(up) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends")
		return
	}
	legs, _ := scatter[server.MetricsResponse](r.Context(), up, http.MethodGet, "/metrics", nil)
	if len(legs) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no live backends answered the scatter")
		return
	}
	out := MetricsResponse{
		Epochs: make(map[string]uint64),
		Nodes:  make(map[string]server.MetricsResponse),
	}
	unlimited := false
	var meanSum float64
	for _, l := range legs {
		m := l.resp
		out.Nodes[l.name] = m
		out.Epochs[l.name] = m.Epoch
		out.Epoch += m.Epoch
		out.Posts += m.Posts
		out.Spent += m.Spent
		out.WastedPosts += m.WastedPosts
		out.LeasesIssued += m.LeasesIssued
		out.LeasesOutstanding += m.LeasesOutstanding
		out.LeasesFulfilled += m.LeasesFulfilled
		out.LeasesExpired += m.LeasesExpired
		out.AllocatedSpent += m.AllocatedSpent
		out.ResidentResources += m.ResidentResources
		out.ColdResources += m.ColdResources
		out.Evictions += m.Evictions
		out.Rehydrations += m.Rehydrations
		out.ResidentBytes += m.ResidentBytes
		if m.RehydrateP99 > out.RehydrateP99 {
			out.RehydrateP99 = m.RehydrateP99
		}
		if m.RemainingBudget < 0 {
			unlimited = true
		} else {
			out.RemainingBudget += m.RemainingBudget
		}
		meanSum += m.MeanQuality
	}
	if unlimited {
		out.RemainingBudget = -1
	}
	out.MeanQuality = meanSum / float64(len(legs))
	out.Partial = len(legs) < len(g.backends)
	server.WriteJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleInfo(w http.ResponseWriter, r *http.Request) {
	up := g.upBackends()
	ci := ClusterInfo{Nodes: len(g.backends), Up: len(up), VNodes: g.m.VNodes, MapHash: g.mapHash}
	if len(up) == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, InfoResponse{Ready: false, Cluster: ci})
		return
	}
	var ni server.InfoResponse
	var got bool
	for _, b := range up {
		if err := b.do(r.Context(), http.MethodGet, "/info", nil, &ni); err == nil {
			got = true
			break
		}
	}
	if !got {
		server.WriteJSON(w, http.StatusServiceUnavailable, InfoResponse{Ready: false, Cluster: ci})
		return
	}
	server.WriteJSON(w, http.StatusOK, InfoResponse{
		N:           ni.N,
		TagUniverse: ni.TagUniverse,
		Strategy:    ni.Strategy,
		Budget:      ni.Budget,
		Ready:       len(up) == len(g.backends),
		Cluster:     ci,
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := make([]NodeHealth, len(g.backends))
	upCount := 0
	for i, b := range g.backends {
		u := b.up.Load()
		if u {
			upCount++
		}
		nodes[i] = NodeHealth{Name: b.name, URL: b.url, Up: u}
	}
	resp := HealthResponse{
		Ready:    upCount == len(g.backends),
		Degraded: upCount > 0 && upCount < len(g.backends),
		Nodes:    nodes,
	}
	// The gateway is useless with zero live shards — that, and only
	// that, is a gateway-level 503. One dead shard is degraded-but-
	// serving: scatter queries still answer with partial results.
	status := http.StatusOK
	if upCount == 0 {
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, resp)
}

func (g *Gateway) handleOwner(w http.ResponseWriter, r *http.Request) {
	resource, ok := server.ParseResource(w, r.URL.Query())
	if !ok {
		return
	}
	b := g.backends[g.ring.Owner(resource)]
	server.WriteJSON(w, http.StatusOK, OwnerResponse{
		Resource: resource,
		Node:     b.name,
		URL:      b.url,
		Up:       b.up.Load(),
	})
}
