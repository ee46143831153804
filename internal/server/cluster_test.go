package server_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	incentivetag "incentivetag"
	"incentivetag/internal/server"
)

// newClusterNode builds a harness whose service owns only even
// resource ids and whose server carries the given shard-map hash — a
// minimal one-shard stand-in for a real cluster member.
func newClusterNode(t *testing.T, hash string) *harness {
	t.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Strategy: "FP-MU",
		Owned:    func(r int) bool { return r%2 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Service:      svc,
		Strategy:     "FP-MU",
		TagUniverse:  ds.Vocab.Size(),
		ShardMapHash: hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &harness{ds: ds, svc: svc, ts: ts}
}

func TestClusterMapHashGate(t *testing.T) {
	h := newClusterNode(t, "cafe0123cafe0123")
	var e server.ErrorResponse
	// Missing and wrong hashes are refused with 409.
	h.call(t, "GET", "/cluster/rfd?resource=0", nil, &e, http.StatusConflict)
	h.call(t, "GET", "/cluster/rfd?resource=0&maphash=beef", nil, &e, http.StatusConflict)
	h.call(t, "GET", "/cluster/search?tags=1&maphash=beef", nil, &e, http.StatusConflict)
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: "beef", K: 3}, &e, http.StatusConflict)
	// The right hash is served.
	var rfd server.RFDResponse
	h.call(t, "GET", "/cluster/rfd?resource=0&maphash=cafe0123cafe0123", nil, &rfd, http.StatusOK)
	if rfd.Resource != 0 {
		t.Fatalf("rfd resource = %d", rfd.Resource)
	}

	// A standalone node (no cluster config) serves the surface as a
	// one-node cluster for an empty hash and refuses any real one.
	solo := newHarness(t, 0)
	solo.call(t, "GET", "/cluster/rfd?resource=1&maphash=", nil, &rfd, http.StatusOK)
	solo.call(t, "GET", "/cluster/rfd?resource=1&maphash=cafe0123cafe0123", nil, &e, http.StatusConflict)
}

func TestClusterRFDShapeAndOwnership(t *testing.T) {
	const hash = "feed0123feed0123"
	h := newClusterNode(t, hash)
	// Grow resource 2's live vector so the rfd is non-trivial.
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 2, Tags: []int32{1, 3}}, nil, http.StatusOK)

	var rfd server.RFDResponse
	h.call(t, "GET", "/cluster/rfd?resource=2&maphash="+hash, nil, &rfd, http.StatusOK)
	if rfd.Resource != 2 || rfd.Norm2 <= 0 || len(rfd.Entries) == 0 {
		t.Fatalf("rfd = %+v", rfd)
	}
	if rfd.Epoch == 0 {
		t.Fatal("rfd epoch did not advance past the ingest")
	}
	var norm2 float64
	prev := int32(-1)
	for _, e := range rfd.Entries {
		if e.Tag <= prev {
			t.Fatalf("entries not in ascending tag order: %+v", rfd.Entries)
		}
		prev = e.Tag
		norm2 += float64(e.Count) * float64(e.Count)
	}
	if norm2 != rfd.Norm2 {
		t.Fatalf("norm2 %v does not match entries %v", rfd.Norm2, norm2)
	}

	// A non-owned subject's rfd is refused: this node's copy is stale.
	var e server.ErrorResponse
	h.call(t, "GET", "/cluster/rfd?resource=3&maphash="+hash, nil, &e, http.StatusMisdirectedRequest)
	// Out-of-range stays a plain 400.
	h.call(t, "GET", "/cluster/rfd?resource=999&maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "GET", "/cluster/rfd?resource=x&maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "GET", "/cluster/rfd?maphash="+hash, nil, &e, http.StatusBadRequest)
}

func TestClusterTopKScoresOnlyOwned(t *testing.T) {
	const hash = "beef0123beef0123"
	h := newClusterNode(t, hash)
	var rfd server.RFDResponse
	h.call(t, "GET", "/cluster/rfd?resource=4&maphash="+hash, nil, &rfd, http.StatusOK)

	var resp server.ClusterTopKResponse
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{
		MapHash: hash,
		Exclude: 4,
		QNorm2:  rfd.Norm2,
		K:       40,
		Entries: rfd.Entries,
	}, &resp, http.StatusOK)
	if len(resp.Top) == 0 {
		t.Fatal("no results")
	}
	for _, e := range resp.Top {
		if e.Resource%2 != 0 {
			t.Fatalf("non-owned resource %d in owned-only ranking", e.Resource)
		}
		if e.Resource == 4 {
			t.Fatal("subject ranked against itself")
		}
	}

	var s server.SearchResponse
	h.call(t, "GET", "/cluster/search?tags=1,2,3&k=40&maphash="+hash, nil, &s, http.StatusOK)
	for _, e := range s.Top {
		if e.Resource%2 != 0 {
			t.Fatalf("non-owned resource %d in owned-only search", e.Resource)
		}
	}
	var e server.ErrorResponse
	h.call(t, "GET", "/cluster/search?maphash="+hash, nil, &e, http.StatusBadRequest)
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: hash, K: 0}, &e, http.StatusBadRequest)

	// k is capped like /topk's: an oversized k is refused before it can
	// size anything (an unbounded one lets a single request exhaust the
	// node's memory), and the node keeps serving. The huge k goes as a
	// raw JSON number so the test compiles on 32-bit targets too.
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: hash, K: 1001, QNorm2: rfd.Norm2, Entries: rfd.Entries}, &e, http.StatusBadRequest)
	h.call(t, "POST", "/cluster/topk", map[string]any{
		"maphash": hash, "k": int64(1) << 40, "qnorm2": rfd.Norm2, "entries": rfd.Entries,
	}, &e, http.StatusBadRequest)
	h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: hash, Exclude: 4, K: 1000, QNorm2: rfd.Norm2, Entries: rfd.Entries}, &resp, http.StatusOK)

	// Query vectors RFD could never emit are refused: the pruning bounds
	// assume ascending tags with positive counts.
	for _, bad := range [][]server.WeightedEntry{
		{{Tag: -1, Count: 1}},                     // negative tag id
		{{Tag: 2, Count: 1}, {Tag: 2, Count: 1}},  // duplicated tag
		{{Tag: 3, Count: 1}, {Tag: 2, Count: 1}},  // descending tags
		{{Tag: 2, Count: 0}},                      // zero count
		{{Tag: 1, Count: 2}, {Tag: 2, Count: -3}}, // negative count
	} {
		h.call(t, "POST", "/cluster/topk", server.ClusterTopKRequest{MapHash: hash, K: 5, QNorm2: 1, Entries: bad}, &e, http.StatusBadRequest)
	}
}

func TestIngestMisdirected(t *testing.T) {
	h := newClusterNode(t, "d00d0123d00d0123")
	var e server.ErrorResponse
	// Single post to a non-owned resource: 421, not silently dropped.
	h.call(t, "POST", "/ingest", server.IngestRequest{Resource: 3, Tags: []int32{1}}, &e, http.StatusMisdirectedRequest)
	// A batch containing one misdirected event is refused whole.
	before := h.posts(t)
	h.call(t, "POST", "/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Resource: 2, Tags: []int32{1}},
		{Resource: 5, Tags: []int32{2}},
	}}, &e, http.StatusMisdirectedRequest)
	if after := h.posts(t); after != before {
		t.Fatalf("misdirected batch partially ingested: %d -> %d", before, after)
	}
	// Owned resources ingest normally.
	h.call(t, "POST", "/ingest", server.IngestRequest{Events: []server.IngestEvent{
		{Resource: 2, Tags: []int32{1}},
		{Resource: 6, Tags: []int32{2}},
	}}, nil, http.StatusOK)
}

// posts reads the node's live post count from /metrics.
func (h *harness) posts(t *testing.T) int {
	t.Helper()
	var m server.MetricsResponse
	h.call(t, "GET", "/metrics", nil, &m, http.StatusOK)
	return m.Posts
}
