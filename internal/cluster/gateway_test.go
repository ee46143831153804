package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	incentivetag "incentivetag"
	"incentivetag/internal/admit"
	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

const (
	corpusN    = 40
	corpusSeed = 7
)

// node is one cluster member under test: its service, its HTTP server,
// and enough to kill and resurrect it (same address, same WAL).
type node struct {
	name   string
	svc    *incentivetag.Service
	ts     *httptest.Server
	addr   string
	walDir string
}

type clusterHarness struct {
	t     *testing.T
	m     *cluster.Map
	nodes []*node
	gw    *cluster.Gateway
	gts   *httptest.Server
	// reference is a single-node service fed the identical post stream.
	reference *incentivetag.Service
	vocab     int
	posted    int
}

func dataset(t *testing.T) *incentivetag.Dataset {
	t.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(corpusN, corpusSeed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// startNode boots (or reboots) one member: a fresh service primed over
// the same deterministic corpus, recovered from its WAL if one exists,
// served on the node's fixed address.
func (h *clusterHarness) startNode(nd *node) {
	h.t.Helper()
	ds := dataset(h.t)
	owned, err := h.m.OwnedBy(nd.name)
	if err != nil {
		h.t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Strategy: "FP-MU",
		Seed:     corpusSeed,
		WALDir:   nd.walDir,
		Owned:    owned,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Service:      svc,
		Strategy:     "FP-MU",
		TagUniverse:  ds.Vocab.Size(),
		ShardMapHash: h.m.Hash(),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	l, err := net.Listen("tcp", nd.addr)
	if err != nil {
		h.t.Fatalf("rebinding %s: %v", nd.addr, err)
	}
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	nd.svc, nd.ts = svc, ts
}

// stopNode kills a member ungracefully from the cluster's perspective.
func (h *clusterHarness) stopNode(nd *node) {
	h.t.Helper()
	nd.ts.Close()
	if err := nd.svc.Close(); err != nil {
		h.t.Fatal(err)
	}
}

func newCluster(t *testing.T, nNodes int, admission admit.Config) *clusterHarness {
	t.Helper()
	h := &clusterHarness{t: t}
	h.m = &cluster.Map{VNodes: 64}
	for i := 0; i < nNodes; i++ {
		h.m.Nodes = append(h.m.Nodes, cluster.Node{
			Name: fmt.Sprintf("node%d", i),
			// Placeholder; replaced with the real listener address below.
			URL: "http://127.0.0.1:1",
		})
	}
	for i := 0; i < nNodes; i++ {
		nd := &node{name: h.m.Nodes[i].Name, walDir: filepath.Join(t.TempDir(), "wal")}
		// First boot on an ephemeral port; the address then stays fixed
		// for the node's lifetime so restarts land where the map points.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd.addr = l.Addr().String()
		l.Close()
		h.nodes = append(h.nodes, nd)
		h.m.Nodes[i].URL = "http://" + nd.addr
	}
	for _, nd := range h.nodes {
		h.startNode(nd)
	}

	ds := dataset(t)
	h.vocab = ds.Vocab.Size()
	ref, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{Strategy: "FP-MU", Seed: corpusSeed})
	if err != nil {
		t.Fatal(err)
	}
	h.reference = ref

	gw, err := cluster.New(cluster.Config{
		Map:           h.m,
		Admission:     admission,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	h.gw = gw
	h.gts = httptest.NewServer(gw.Handler())

	t.Cleanup(func() {
		h.gts.Close()
		gw.Stop()
		for _, nd := range h.nodes {
			nd.ts.Close()
			nd.svc.Close()
		}
		ref.Close()
	})
	return h
}

func (h *clusterHarness) call(method, path string, body, out any, wantStatus int) {
	h.t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		enc, merr := json.Marshal(body)
		if merr != nil {
			h.t.Fatal(merr)
		}
		req, err = http.NewRequest(method, h.gts.URL+path, bytes.NewReader(enc))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(method, h.gts.URL+path, nil)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.gts.Client().Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		h.t.Fatalf("%s %s = %d (want %d): %s", method, path, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatalf("decoding %s %s: %v", method, path, err)
		}
	}
}

func randTags(rng *rand.Rand, vocab int) []int32 {
	ts := make([]int32, 1+rng.Intn(3))
	for i := range ts {
		ts[i] = int32(rng.Intn(vocab))
	}
	return ts
}

func mustPost(t *testing.T, ts []int32) incentivetag.Post {
	t.Helper()
	ids := make([]incentivetag.Tag, len(ts))
	for i, v := range ts {
		ids[i] = incentivetag.Tag(v)
	}
	p, err := incentivetag.NewPost(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ingestVia pushes one random ingest through the gateway — a single
// post or a batch with arbitrary resource mixing — and applies the
// identical posts to the reference engine.
func (h *clusterHarness) ingestVia(rng *rand.Rand) {
	h.t.Helper()
	if rng.Intn(3) == 0 {
		r := rng.Intn(corpusN)
		ts := randTags(rng, h.vocab)
		h.call("POST", "/ingest", server.IngestRequest{Resource: r, Tags: ts}, nil, http.StatusOK)
		if err := h.reference.Ingest(r, mustPost(h.t, ts)); err != nil {
			h.t.Fatal(err)
		}
		h.posted++
		return
	}
	nEv := 1 + rng.Intn(8)
	evs := make([]server.IngestEvent, nEv)
	ref := make([]incentivetag.PostEvent, nEv)
	for i := range evs {
		r := rng.Intn(corpusN)
		ts := randTags(rng, h.vocab)
		evs[i] = server.IngestEvent{Resource: r, Tags: ts}
		ref[i] = incentivetag.PostEvent{Resource: r, Post: mustPost(h.t, ts)}
	}
	var out server.IngestResponse
	h.call("POST", "/ingest", server.IngestRequest{Events: evs}, &out, http.StatusOK)
	if out.Ingested != nEv {
		h.t.Fatalf("batch ingested %d of %d", out.Ingested, nEv)
	}
	if err := h.reference.IngestMany(ref); err != nil {
		h.t.Fatal(err)
	}
	h.posted += nEv
}

// assertBitIdentical drives merged /topk for every subject and a spread
// of /search queries through the gateway and compares every id and
// every score's float64 bits against the single-node reference.
func (h *clusterHarness) assertBitIdentical(rng *rand.Rand, k int) {
	h.t.Helper()
	for subject := 0; subject < corpusN; subject++ {
		var got cluster.TopKResponse
		h.call("GET", fmt.Sprintf("/topk?resource=%d&k=%d", subject, k), nil, &got, http.StatusOK)
		if got.Partial {
			h.t.Fatalf("subject %d: partial with all nodes up", subject)
		}
		if len(got.Epochs) != len(h.nodes) {
			h.t.Fatalf("subject %d: %d per-node epochs, want %d", subject, len(got.Epochs), len(h.nodes))
		}
		want, _, err := h.reference.TopK(subject, k)
		if err != nil {
			h.t.Fatal(err)
		}
		if len(got.Top) != len(want) {
			h.t.Fatalf("subject %d k=%d: %d vs %d results", subject, k, len(got.Top), len(want))
		}
		for i, w := range want {
			g := got.Top[i]
			if g.Resource != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				h.t.Fatalf("subject %d k=%d rank %d: merged (%d, %x) vs single-node (%d, %x)",
					subject, k, i, g.Resource, math.Float64bits(g.Score), w.ID, math.Float64bits(w.Score))
			}
		}
	}
	for trial := 0; trial < 15; trial++ {
		ts := randTags(rng, h.vocab)
		q := mustPost(h.t, ts)
		var got cluster.SearchResponse
		path := fmt.Sprintf("/search?tags=%d", ts[0])
		for _, tg := range ts[1:] {
			path += fmt.Sprintf(",%d", tg)
		}
		h.call("GET", path+fmt.Sprintf("&k=%d", k), nil, &got, http.StatusOK)
		want, _, err := h.reference.Search(q, k)
		if err != nil {
			h.t.Fatal(err)
		}
		if len(got.Top) != len(want) {
			h.t.Fatalf("search %v: %d vs %d results", ts, len(got.Top), len(want))
		}
		for i, w := range want {
			g := got.Top[i]
			if g.Resource != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				h.t.Fatalf("search %v rank %d: merged (%d, %x) vs single-node (%d, %x)",
					ts, i, g.Resource, math.Float64bits(g.Score), w.ID, math.Float64bits(w.Score))
			}
		}
	}
}

// assertAccounting checks exact cluster-wide post accounting: the
// gateway's merged count, the per-shard sum, and the reference engine
// all agree with the number of posts pushed.
func (h *clusterHarness) assertAccounting() {
	h.t.Helper()
	var m cluster.MetricsResponse
	h.call("GET", "/metrics", nil, &m, http.StatusOK)
	if m.Posts != h.posted {
		h.t.Fatalf("gateway reports %d posts, %d were ingested", m.Posts, h.posted)
	}
	sum := 0
	for _, nm := range m.Nodes {
		sum += nm.Posts
	}
	if sum != h.posted {
		h.t.Fatalf("per-node posts sum to %d, %d were ingested", sum, h.posted)
	}
	if got := h.reference.Snapshot().Posts; got != h.posted {
		h.t.Fatalf("reference absorbed %d posts, %d were ingested", got, h.posted)
	}
	if m.Epoch == 0 || len(m.Epochs) != len(h.nodes) {
		h.t.Fatalf("merged metrics epochs malformed: epoch=%d epochs=%v", m.Epoch, m.Epochs)
	}
}

// The tentpole property: arbitrary interleavings of single and batch
// ingest through the gateway — split by owner across three shards —
// yield merged /topk and /search responses bit-identical to one engine
// ingesting the same sequence, with exact post accounting throughout.
func TestGatewayBitIdenticalToSingleNode(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(1))
	h.assertBitIdentical(rng, 10) // primed state only
	for round := 0; round < 4; round++ {
		for i := 0; i < 15; i++ {
			h.ingestVia(rng)
		}
		h.assertBitIdentical(rng, 1+rng.Intn(corpusN))
		h.assertAccounting()
	}
}

// Same property across a mid-stream node kill and WAL-backed restart:
// the dead shard's posts survive in its log, the prober readmits the
// resurrected node, and the merged ranking is again bit-identical.
func TestGatewayBitIdenticalAcrossNodeRestart(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		h.ingestVia(rng)
	}
	h.assertBitIdentical(rng, 10)

	// Kill node 1 mid-stream and keep ingesting to resources the live
	// nodes own (ingest to the dead owner would be refused, and refusal
	// semantics are TestGatewayPartialDegradation's business).
	victim := h.nodes[1]
	h.stopNode(victim)
	deadOwned, err := h.m.OwnedBy(victim.name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r := rng.Intn(corpusN)
		if deadOwned(r) {
			continue
		}
		ts := randTags(rng, h.vocab)
		h.call("POST", "/ingest", server.IngestRequest{Resource: r, Tags: ts}, nil, http.StatusOK)
		if err := h.reference.Ingest(r, mustPost(h.t, ts)); err != nil {
			t.Fatal(err)
		}
		h.posted++
	}

	// Let the prober see the node down first: otherwise WaitReady below
	// can return on the stale "up" from before the kill, and a probe
	// that failed during the outage lands after the restart and drops
	// the node out of the next scatter.
	h.waitDegraded()

	// Resurrect on the same address: recovery replays the WAL, the
	// prober flips the node back up, and the full property must hold
	// again — including the posts from before the crash.
	h.startNode(victim)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		h.ingestVia(rng)
	}
	h.assertBitIdentical(rng, 12)
	h.assertAccounting()
}

// waitDegraded blocks until the gateway's prober has marked some node
// down (healthz reports degraded).
func (h *clusterHarness) waitDegraded() {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var hz cluster.HealthResponse
		h.call("GET", "/healthz", nil, &hz, http.StatusOK)
		if hz.Degraded {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.t.Fatal("gateway never reported degraded")
}

// One dead shard must degrade scatter reads to partial results with
// 200 — never a 5xx — while single-shard operations against the dead
// owner fail with an honest 503.
func TestGatewayPartialDegradation(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		h.ingestVia(rng)
	}

	victim := h.nodes[2]
	h.stopNode(victim)
	h.waitDegraded()
	deadOwned, err := h.m.OwnedBy(victim.name)
	if err != nil {
		t.Fatal(err)
	}
	liveSubject, deadSubject := -1, -1
	for r := 0; r < corpusN; r++ {
		if deadOwned(r) {
			deadSubject = r
		} else {
			liveSubject = r
		}
	}
	if liveSubject < 0 || deadSubject < 0 {
		t.Fatalf("partition has an empty side: live=%d dead=%d", liveSubject, deadSubject)
	}

	// Scatter reads: 200 + partial, epochs only from live nodes.
	var tk cluster.TopKResponse
	h.call("GET", fmt.Sprintf("/topk?resource=%d&k=10", liveSubject), nil, &tk, http.StatusOK)
	if !tk.Partial || len(tk.Top) == 0 || len(tk.Epochs) != 2 {
		t.Fatalf("topk with dead shard: %+v", tk)
	}
	var sr cluster.SearchResponse
	h.call("GET", "/search?tags=1,2&k=10", nil, &sr, http.StatusOK)
	if !sr.Partial {
		t.Fatalf("search with dead shard not partial: %+v", sr)
	}
	var m cluster.MetricsResponse
	h.call("GET", "/metrics", nil, &m, http.StatusOK)
	if !m.Partial || len(m.Nodes) != 2 {
		t.Fatalf("metrics with dead shard: partial=%v nodes=%d", m.Partial, len(m.Nodes))
	}

	// The subject's own vector lives on the dead node: that read cannot
	// be partial, it is unavailable.
	h.call("GET", fmt.Sprintf("/topk?resource=%d&k=10", deadSubject), nil, nil, http.StatusServiceUnavailable)
	// Writes to the dead owner are refused, not dropped.
	h.call("POST", "/ingest", server.IngestRequest{Resource: deadSubject, Tags: []int32{1}}, nil, http.StatusServiceUnavailable)

	// Health: degraded but serving.
	var hz cluster.HealthResponse
	h.call("GET", "/healthz", nil, &hz, http.StatusOK)
	if hz.Ready || !hz.Degraded || len(hz.Nodes) != 3 {
		t.Fatalf("healthz = %+v", hz)
	}
}

// The lease loop through the gateway: allocate returns a node-encoded
// lease, complete lands the post on the owning shard, expire settles,
// and a garbage lease is a clean 400.
func TestGatewayLeaseLoop(t *testing.T) {
	h := newCluster(t, 3, admit.Config{})
	var al server.AllocateResponse
	h.call("POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
	if !al.OK {
		t.Fatal("nothing allocatable on a fresh cluster")
	}
	if al.Lease>>48 == 0 {
		t.Fatalf("lease %d carries no node routing bits", al.Lease)
	}
	before := h.clusterPosts()
	h.call("POST", "/complete", server.CompleteRequest{Lease: al.Lease, Tags: []int32{1, 2}}, nil, http.StatusOK)
	if after := h.clusterPosts(); after != before+1 {
		t.Fatalf("completion did not land exactly one post: %d -> %d", before, after)
	}

	h.call("POST", "/allocate", server.AllocateRequest{}, &al, http.StatusOK)
	if al.OK {
		h.call("POST", "/expire", server.ExpireRequest{Lease: al.Lease}, nil, http.StatusOK)
	}
	// A lease that decodes to no node is refused before any proxying.
	h.call("POST", "/complete", server.CompleteRequest{Lease: 42, Tags: []int32{1}}, nil, http.StatusBadRequest)

	// The allocated resource must be owned by the node that leased it —
	// double-check through /owner.
	var own cluster.OwnerResponse
	h.call("GET", fmt.Sprintf("/owner?resource=%d", al.Resource), nil, &own, http.StatusOK)
	if !own.Up || own.Node == "" {
		t.Fatalf("owner = %+v", own)
	}
}

func (h *clusterHarness) clusterPosts() int {
	h.t.Helper()
	var m cluster.MetricsResponse
	h.call("GET", "/metrics", nil, &m, http.StatusOK)
	return m.Posts
}

// The gateway reuses the admission middleware: with a tiny bulk bucket,
// hammered ingest is shed with 429 + Retry-After at the gateway itself.
func TestGatewayAdmission(t *testing.T) {
	h := newCluster(t, 2, admit.Config{Rate: 0.001, Burst: 1})
	shed := false
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest("POST", h.gts.URL+"/ingest",
			bytes.NewReader([]byte(`{"resource":0,"tags":[1]}`)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := h.gts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed = true
		}
		resp.Body.Close()
	}
	if !shed {
		t.Fatal("token bucket never shed")
	}
}

// Shard-map hash agreement: a gateway whose map names diverge from the
// nodes' map must be refused by every cluster RPC (409 surfaces as a
// scatter with zero successful legs).
func TestGatewayMapHashMismatch(t *testing.T) {
	h := newCluster(t, 2, admit.Config{})
	badMap := &cluster.Map{VNodes: h.m.VNodes}
	badMap.Nodes = append(badMap.Nodes, cluster.Node{Name: "renamed0", URL: h.m.Nodes[0].URL})
	badMap.Nodes = append(badMap.Nodes, cluster.Node{Name: "renamed1", URL: h.m.Nodes[1].URL})
	gw, err := cluster.New(cluster.Config{Map: badMap, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err) // healthz carries no map hash; probes still pass
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/search?tags=1&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched-map search = %d, want 409", resp.StatusCode)
	}
}

// get answers method+url with the status, headers and body text.
func get(t *testing.T, method, url string, body []byte) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(raw)
}

// The gateway's error paths answer as a node's do: a bad k is the
// node's 400 verbatim, an oversized body is a 413 counted in
// taggate_body_too_large_total, and once Shutdown starts the drain gate
// refuses work with 503 + Retry-After while /healthz still answers.
func TestGatewayErrorPaths(t *testing.T) {
	h := newCluster(t, 2, admit.Config{})
	gw, err := cluster.New(cluster.Config{Map: h.m, MaxBodyBytes: 512, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name       string
		method     string
		path       string
		body       []byte
		want       int
		sameAsNode bool
	}{
		{"k=0", "GET", "/topk?resource=0&k=0", nil, http.StatusBadRequest, true},
		{"k=1001", "GET", "/topk?resource=0&k=1001", nil, http.StatusBadRequest, true},
		{"k=abc", "GET", "/topk?resource=0&k=abc", nil, http.StatusBadRequest, true},
		{"oversized body", "POST", "/ingest", bytes.Repeat([]byte(" "), 600), http.StatusRequestEntityTooLarge, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := get(t, tc.method, ts.URL+tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("%s %s = %d (want %d): %s", tc.method, tc.path, status, tc.want, body)
			}
			if !tc.sameAsNode {
				return
			}
			nodeStatus, _, nodeBody := get(t, tc.method, h.nodes[0].ts.URL+tc.path, tc.body)
			if nodeStatus != status || nodeBody != body {
				t.Fatalf("gateway answered %d %s, node %d %s", status, body, nodeStatus, nodeBody)
			}
		})
	}
	if _, _, prom := get(t, "GET", ts.URL+"/metrics/prom", nil); !strings.Contains(prom, "\ntaggate_body_too_large_total 1\n") {
		t.Fatalf("413 not counted:\n%s", prom)
	}

	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, hdr, body := get(t, "GET", ts.URL+"/topk?resource=0&k=5", nil)
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("mid-drain /topk = %d (Retry-After %q): %s", status, hdr.Get("Retry-After"), body)
	}
	if status, _, body := get(t, "GET", ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("mid-drain /healthz = %d: %s", status, body)
	}
}

// promLine matches one sample line of the text exposition format under
// one metric prefix (the node's pattern, prefix aside).
func promLine(prefix string) *regexp.Regexp {
	return regexp.MustCompile(`^` + prefix + `_[a-z0-9_]+(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? ((\+Inf)|([0-9eE.+-]+))$`)
}

var promLabelKey = regexp.MustCompile(`([a-zA-Z_]+)="[^"]*"`)

// scrapeProm checks every sample line of base's /metrics/prom against
// the prefix's pattern and returns, per family name (prefix stripped),
// the set of label-key lists its samples carry.
func scrapeProm(t *testing.T, base, prefix string) map[string]map[string]bool {
	t.Helper()
	status, _, text := get(t, "GET", base+"/metrics/prom", nil)
	if status != http.StatusOK {
		t.Fatalf("%s/metrics/prom = %d", base, status)
	}
	line := promLine(prefix)
	families := map[string]map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Fatalf("malformed %s exposition line: %q", prefix, l)
		}
		series := l[len(prefix)+1 : strings.LastIndexByte(l, ' ')]
		name, labels, _ := strings.Cut(series, "{")
		var keys []string
		for _, m := range promLabelKey.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		if families[name] == nil {
			families[name] = map[string]bool{}
		}
		families[name][strings.Join(keys, ",")] = true
	}
	return families
}

// The gateway's exposition parses like a node's, and every family the
// two share carries the same label keys on both, so one dashboard query
// set reads either daemon.
func TestGatewayPromMetricsMatchNode(t *testing.T) {
	h := newCluster(t, 2, admit.Config{})
	h.call("GET", "/topk?resource=0&k=5", nil, nil, http.StatusOK)
	gate := scrapeProm(t, h.gts.URL, "taggate")
	node := scrapeProm(t, h.nodes[0].ts.URL, "tagserved")
	for _, name := range []string{
		"requests_total", "request_seconds_bucket", "request_seconds_sum", "request_seconds_count",
		"request_quantile_seconds", "inflight", "queue_depth", "queue_limit", "inflight_limit",
		"draining", "body_too_large_total",
	} {
		if len(node[name]) == 0 {
			t.Fatalf("node exposition lacks %s", name)
		}
		if fmt.Sprint(gate[name]) != fmt.Sprint(node[name]) {
			t.Fatalf("%s label keys: gateway %v, node %v", name, gate[name], node[name])
		}
	}
	if !gate["request_seconds_bucket"]["route,class,le"] {
		t.Fatalf("gateway histogram label keys %v", gate["request_seconds_bucket"])
	}
}
