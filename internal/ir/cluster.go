// Cluster query surface: the node-side half of scatter-gather queries.
//
// A sharded cluster partitions resources across nodes by ownership (the
// gateway's consistent-hash ring). Each node holds full live state only
// for the resources it OWNS — every other resource sits at its primed
// boot state, because the gateway routed all of its live posts to its
// owner. A node answering a cluster query therefore must (a) score only
// owned resources and (b) accept the query vector from outside: for a
// gateway /topk the subject's count vector lives on the subject's owner
// node, is fetched once via RFDEntries, and is shipped to every node as
// an explicit integer-weighted query.
//
// Node legs run the same block-max pruned executor as single-node
// queries (blockmax.go), with the ownership predicate as one more
// field of the query: candidates a node does not own never reach its
// selector, and its zero-padding skips them too.
//
// # Why the merged answer is bit-identical to a single node
//
// Every quantity entering a score is an exact small integer in float64:
// posting counts, query weights (the subject's counts), and the dot
// products (sums of integer products stay exactly representable, so
// float addition is associative here and per-node partial accumulation
// is exact). A leg scores with the single-node expressions — dot /
// (subjNorm·√norm2) with the clamp to 1 for TopK, dot / √(qNorm2·norm2)
// for Search — so a candidate's score computed on its owner node has
// the bits the single-node engine would produce.
//
// Pruning keeps each leg exact. Every block, tag and suffix bound is an
// upper bound for every resource, owned ones included. The kth-score
// threshold is built from owned candidates only, so it can only sit
// lower than a whole-index threshold, and every cut it drives stays
// conservative: the leg returns exactly its owned resources' true
// top-k. Zero-padding runs only when the heap never filled, and then
// nothing was pruned, so the visited set holds every overlapping
// candidate — the same exclusion set the exhaustive padding builds.
//
// Ranking is a strict total order (score desc, id asc; ids unique), so
// merging per-node top-k lists under the same comparator and truncating
// to k reproduces the global top-k exactly. Zero-padding composes the
// same way: each node pads its own owned, non-overlapping resources
// smallest-id-first, so the union of per-node lists always contains the
// k globally smallest padding candidates a single node would choose.
package ir

import (
	"math"

	"incentivetag/internal/tags"
)

// WeightedTag is one (tag, count) component of an externally-supplied
// integer-weighted query vector — the wire form of a resource's rfd
// counts.
type WeightedTag struct {
	Tag   tags.Tag
	Count int64
}

// RFDEntries exports resource id's live count vector as weighted tags
// (ascending tag order) plus its squared norm, post count and the epoch
// of the consistent view it was read under. This is what a gateway
// fetches from a subject's owner node before scattering a TopKWeighted
// query. Returns nil entries for an out-of-range id.
func (ix *OnlineIndex) RFDEntries(id int) (entries []WeightedTag, norm2 float64, posts int, epoch uint64) {
	if id < 0 || id >= ix.n {
		return nil, 0, 0, ix.epoch.Load()
	}
	ix.rlockAll()
	defer ix.runlockAll()
	epoch = ix.epoch.Load()
	sh, l := ix.locate(id)
	if c := sh.vecs[l]; c != nil {
		entries = make([]WeightedTag, 0, c.Len())
		for _, t := range c.Support() {
			entries = append(entries, WeightedTag{Tag: t, Count: c.Get(t)})
		}
		return entries, c.Norm2(), c.Posts(), epoch
	}
	// Cold resource: stream the frozen blob transiently — a gateway
	// fetching a remote subject's rfd does not make it locally hot. The
	// squared norm is re-summed from the same exact integers Norm2
	// accumulated, so the wire values are bit-identical either way.
	entries = []WeightedTag{}
	norm2 = 0
	posts = scanFrozenVec(sh.frozen[l], id, func(t tags.Tag, c int64) {
		entries = append(entries, WeightedTag{Tag: t, Count: c})
		norm2 += float64(c) * float64(c)
	})
	return entries, norm2, posts, epoch
}

// TopKWeighted runs a top-k similarity query against an explicit
// integer-weighted query vector, restricted to resources the owned
// predicate admits (nil admits all), excluding resource `exclude` (the
// subject, which must never rank against itself; an id outside the
// index excludes nothing). qNorm2 is the query vector's exact squared
// norm (the subject's Norm2 on its owner node). Weights must be
// positive: the pruning bounds assume it.
//
// It is TopK's pruned execution with the query vector supplied from
// outside, so for owned == nil, query == subject's own rfd and exclude
// == subject it is bit-identical to TopK at the same epoch (asserted by
// tests), and a cluster's per-node partitions merge into exactly the
// single-node ranking.
func (ix *OnlineIndex) TopKWeighted(query []WeightedTag, qNorm2 float64, exclude, k int, owned func(int) bool) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 {
		return nil, ix.epoch.Load()
	}
	if exclude >= ix.n {
		exclude = -1
	}
	return ix.execute(k, true, func(sc *queryScratch) prunedQuery {
		pq := prunedQuery{exclude: exclude, owned: owned}
		// A zero-norm (or empty) query only pads, like a zero-norm TopK
		// subject.
		if subjNorm := math.Sqrt(qNorm2); subjNorm > 0 {
			sc.support, sc.weights = sc.support[:0], sc.weights[:0]
			for _, wt := range query {
				sc.support = append(sc.support, wt.Tag)
				sc.weights = append(sc.weights, float64(wt.Count))
			}
			pq.tags, pq.weights, pq.subjNorm = sc.support, sc.weights, subjNorm
		}
		return pq
	})
}

// SearchOwned is Search restricted to resources the owned predicate
// admits (nil admits all, which is Search itself): the node-side half
// of a scatter-gather /search. Per-node answers merge into exactly the
// single-node ranking under the (score desc, id asc) comparator.
func (ix *OnlineIndex) SearchOwned(query tags.Post, k int, owned func(int) bool) ([]Scored, uint64) {
	ix.searchQueries.Add(1)
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 || ix.n == 0 {
		return nil, ix.epoch.Load()
	}
	return ix.execute(k, false, func(*queryScratch) prunedQuery {
		// The query vector's squared norm is |query| exactly (unit counts
		// over distinct tags). The score expression mirrors
		// sparse.Counts.Cosine term for term (single sqrt of the norm
		// product, same clamping), so a Search score is bit-identical to
		// Cosine against a count vector holding the query.
		return prunedQuery{exclude: -1, tags: query, qNorm2: float64(len(query)), search: true, owned: owned}
	})
}
