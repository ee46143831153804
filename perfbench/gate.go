package main

import (
	"encoding/json"
	"fmt"
	"math"

	"incentivetag"
	"incentivetag/internal/ir"
	"incentivetag/internal/server"
)

// Correctness gate. Every check runs before any number is reported; a
// failed check counts as a failed operation and makes the run invalid.

// gate tallies checks and keeps the first failure.
type gate struct {
	checks, failed int
	first          error
}

func (g *gate) err(err error, what string) {
	g.checks++
	if err != nil {
		g.failed++
		if g.first == nil {
			g.first = fmt.Errorf("%s: %w", what, err)
		}
	}
}

func (g *gate) expect(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	g.err(err, "check")
}

// sameMetrics requires the served aggregates to be bit-identical to the
// oracle's: posts, mean-quality bits, over- and under-tagged counts and
// wasted posts.
func sameMetrics(got server.MetricsResponse, want incentivetag.Metrics) error {
	switch {
	case got.Posts != want.Posts:
		return fmt.Errorf("posts %d, oracle %d", got.Posts, want.Posts)
	case math.Float64bits(got.MeanQuality) != math.Float64bits(want.MeanQuality):
		return fmt.Errorf("mean quality %v (%#x), oracle %v (%#x)", got.MeanQuality, math.Float64bits(got.MeanQuality),
			want.MeanQuality, math.Float64bits(want.MeanQuality))
	case got.OverTagged != want.OverTagged:
		return fmt.Errorf("over-tagged %d, oracle %d", got.OverTagged, want.OverTagged)
	case got.UnderTagged != want.UnderTagged:
		return fmt.Errorf("under-tagged %d, oracle %d", got.UnderTagged, want.UnderTagged)
	case got.WastedPosts != want.WastedPosts:
		return fmt.Errorf("wasted posts %d, oracle %d", got.WastedPosts, want.WastedPosts)
	}
	return nil
}

// sameTop requires a served ranking to equal the oracle's entry for
// entry: same ids, same score bits.
func sameTop(got []server.TopKEntry, want []ir.Scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Resource != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: (%d, %v), oracle (%d, %v)", i, got[i].Resource, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// oracle is an untiered in-memory service fed the same posts as the
// served stack, with an index built from its state for the exhaustive
// (unpruned, uncached) executors.
type oracle struct {
	svc *incentivetag.Service
	idx *ir.OnlineIndex
}

func newOracle(c *corpus, feed func(*incentivetag.Service) error) (*oracle, error) {
	svc, err := incentivetag.NewService(c.ds, incentivetag.ServiceOptions{})
	if err != nil {
		return nil, err
	}
	if feed != nil {
		if err := feed(svc); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return &oracle{svc: svc, idx: ir.NewOnlineIndex(svc.SnapshotRFDs(), 1)}, nil
}

// checkBody compares one served /topk or /search body (node or
// gateway wire shape) with the exhaustive answer.
func (o *oracle) checkBody(c *corpus, q query, body []byte) error {
	var resp struct {
		Partial bool               `json:"partial"`
		Top     []server.TopKEntry `json:"top"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Partial {
		return fmt.Errorf("partial answer with every node up")
	}
	var want []ir.Scored
	if q.topk {
		want, _ = o.idx.TopKExhaustive(q.subject, 10)
	} else {
		p, err := incentivetag.NewPost(c.post(q.post)...)
		if err != nil {
			return err
		}
		want, _ = o.idx.SearchExhaustive(p, 10)
	}
	return sameTop(resp.Top, want)
}
