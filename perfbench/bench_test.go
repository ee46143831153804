package main

import (
	"encoding/json"
	"math"
	"testing"

	"incentivetag"
	"incentivetag/internal/ir"
	"incentivetag/internal/server"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 1000, true}, // rank 990, ten beyond
		{0.99, 999, false}, // rank 990, nine beyond
		{0.5, 20, true},
		{0.5, 19, false},
		{0.9, 100, true},
		{0.95, 100, false},
		{0.5, 0, false},
	}
	for _, c := range cases {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if q, v, ok := tail(xs[:100]); !ok || q != 0.9 || v != 90 {
		t.Errorf("tail of 1..100 = q%v %v %v; want q0.9 90 true", q, v, ok)
	}
	if _, _, ok := tail(xs[:19]); ok {
		t.Error("19 samples support no percentile, not even the median")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 80, End: 120}}
	// Children cover [10,60) and [80,100) of the parent: 70 of 100.
	if got := selfTime(parent, kids); got != 30 {
		t.Fatalf("self time = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestAttributeFollowsTheCriticalPath(t *testing.T) {
	spans := []span{
		{Name: "gateway:/topk", ID: 1, Start: 0, End: 100},
		{Name: "leg:/cluster/rfd", ID: 2, Parent: 1, Start: 5, End: 25},
		{Name: "node:/cluster/rfd", ID: 3, Parent: 2, Start: 10, End: 20},
		// Two overlapping scatter legs; the later-ending one is critical.
		{Name: "leg:/cluster/topk", ID: 4, Parent: 1, Start: 30, End: 70},
		{Name: "leg:/cluster/topk", ID: 5, Parent: 1, Start: 32, End: 90},
		{Name: "node:/cluster/topk", ID: 6, Parent: 5, Start: 40, End: 80},
	}
	out := map[string]int64{}
	newTree(spans).attribute(spans[0], out)
	total := int64(0)
	for _, v := range out {
		total += v
	}
	if total != 100 {
		t.Fatalf("attribution sums to %d, want the span's 100", total)
	}
	// Node time on the critical path: the rfd handler (10) and the
	// critical scatter handler (40).
	if out["node"] != 50 {
		t.Fatalf("node time = %d, want 50", out["node"])
	}
	if out["cluster"] != 50 {
		t.Fatalf("cluster time = %d, want 50", out["cluster"])
	}
}

func smallCorpus(t *testing.T) *corpus {
	t.Helper()
	c, err := newCorpus(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	c := smallCorpus(t)
	queries := func(seed int64) []query {
		g := newQueryGen(c, newPopularity(c.n, corpusSeed), seed, 0)
		out := make([]query, 300)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	batches := func(seed int64) []ref {
		s := newIngestStream(c, seed)
		var out []ref
		for i := 0; i < 10; i++ {
			out = append(out, s.next(batchEvents)...)
		}
		return out
	}
	tasks := func(seed int64) []ref { return organic(c, newCursors(c), seed, 500) }
	for name, same := range map[string]func(a, b int64) bool{
		"queries": func(a, b int64) bool { return equal(queries(a), queries(b)) },
		"ingest":  func(a, b int64) bool { return equal(batches(a), batches(b)) },
		"organic": func(a, b int64) bool { return equal(tasks(a), tasks(b)) },
	} {
		if !same(7, 7) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		if same(7, 8) {
			t.Errorf("%s: different seeds gave the same stream", name)
		}
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCursorsWrapPastTheInitialPrefix(t *testing.T) {
	c := smallCorpus(t)
	cu := newCursors(c)
	r := c.ds.Resources[0]
	future := len(r.Seq) - r.Initial
	for i := 0; i < future; i++ {
		if got := cu.next(0); int(got.idx) != r.Initial+i {
			t.Fatalf("post %d: cursor at %d, want %d", i, got.idx, r.Initial+i)
		}
	}
	if got := cu.next(0); int(got.idx) != r.Initial {
		t.Fatalf("after the record ran out the cursor is at %d, want %d", got.idx, r.Initial)
	}
}

func TestGateRejectsACorruptedAnswer(t *testing.T) {
	c := smallCorpus(t)
	o, err := newOracle(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.svc.Close()
	q := query{topk: true, subject: 3}
	want, _ := o.idx.TopKExhaustive(q.subject, 10)
	body := func(top []ir.Scored) []byte {
		resp := server.TopKResponse{Resource: q.subject}
		for _, s := range top {
			resp.Top = append(resp.Top, server.TopKEntry{Resource: s.ID, Score: s.Score})
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := o.checkBody(c, q, body(want)); err != nil {
		t.Fatalf("the oracle's own answer was rejected: %v", err)
	}
	bad := append([]ir.Scored(nil), want...)
	bad[0].Score = math.Float64frombits(math.Float64bits(bad[0].Score) ^ 1)
	if err := o.checkBody(c, q, body(bad)); err == nil {
		t.Fatal("a score one bit off was accepted")
	}
	bad = append([]ir.Scored(nil), want...)
	bad[1].ID, bad[2].ID = bad[2].ID, bad[1].ID
	if err := o.checkBody(c, q, body(bad)); err == nil {
		t.Fatal("swapped ranks were accepted")
	}
	if err := o.checkBody(c, q, body(want[:len(want)-1])); err == nil {
		t.Fatal("a truncated ranking was accepted")
	}

	m := o.svc.Snapshot()
	served := server.MetricsResponse{Posts: m.Posts, MeanQuality: m.MeanQuality, OverTagged: m.OverTagged,
		UnderTagged: m.UnderTagged, WastedPosts: m.WastedPosts}
	if err := sameMetrics(served, m); err != nil {
		t.Fatalf("identical metrics rejected: %v", err)
	}
	served.MeanQuality = math.Nextafter(served.MeanQuality, 2)
	if err := sameMetrics(served, m); err == nil {
		t.Fatal("mean quality one ulp off was accepted")
	}
}

func TestSamePerResourceDetectsReorderedPosts(t *testing.T) {
	c := smallCorpus(t)
	cu := newCursors(c)
	acked := []ack{{0, cu.next(1)}, {1, cu.next(2)}, {2, cu.next(1)}}
	log := func(order ...int) []incentivetag.PostEvent {
		var out []incentivetag.PostEvent
		for _, i := range order {
			out = append(out, incentivetag.PostEvent{Resource: int(acked[i].r.res), Post: c.post(acked[i].r)})
		}
		return out
	}
	// Commit order may interleave resources freely.
	if !samePerResource(c, log(1, 0, 2), acked) {
		t.Fatal("a valid interleaving was rejected")
	}
	if samePost(c.post(acked[0].r), c.post(acked[2].r)) {
		t.Skip("corpus repeats the post; reordering is invisible")
	}
	if samePerResource(c, log(2, 1, 0), acked) {
		t.Fatal("reordered posts of one resource were accepted")
	}
	if samePerResource(c, log(0, 1), acked) {
		t.Fatal("a missing post was accepted")
	}
}
