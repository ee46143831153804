// The online index: the live-serving counterpart of BuildInverted.
//
// BuildInverted is immutable — the serving read path used to rebuild it
// from a full SnapshotRFDs clone on every query, making each /topk an
// O(n·|tags|) scan-and-allocate. OnlineIndex keeps the same posting
// lists mutable and maintains them incrementally from the engine's
// per-post ingest deltas, so a query only ever touches the subject's
// posting lists and the corpus is never rescanned after the one-time
// seed at construction.
//
// Since the block-max rework (see blockmax.go) every serving query —
// TopK, Search and the cluster legs TopKWeighted/SearchOwned — runs
// one pruned executor: posting lists are impact-ordered and blocked,
// and whole blocks/tags whose score upper bound cannot beat the
// current kth answer are skipped outright — bit-identical to the
// exhaustive paths, which remain available as TopKExhaustive and
// SearchExhaustive (the pruning oracle and benchmark baseline).
package ir

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// OnlineIndex is a mutable, shard-partitioned inverted index over live
// rfd state. Resources are partitioned across S shards (resource i
// lives on shard i mod S, matching the engine's partition so each
// engine shard's ingest stream lands on exactly one index shard); each
// shard guards its posting lists and count vectors with its own
// RWMutex, so concurrent ingest on different shards proceeds in
// parallel and never contends until a query runs.
//
// # Consistency
//
// Queries are epoch-versioned consistent snapshots: a reader acquires
// every shard's read lock in shard order before touching any state and
// holds all of them for the duration, so the view it scores against is
// the state at the instant the last lock landed — no post is ever
// half-visible across shards. The epoch is the number of posts applied
// to the index since construction; it is stable while a reader holds
// the locks and is returned with every query, so callers can order
// answers and assert freshness. Writers (Apply / the engine subscriber
// hook) block only for the duration of a query, not for other writers
// on different shards.
//
// # Exactness
//
// Posting counts, norms and dot products are all integer-valued and
// exactly representable in float64, so TopK is bit-identical to
// BuildInverted(SnapshotRFDs()).TopK over the same state regardless of
// the order posts arrived — asserted posting-for-posting by the
// randomized equivalence tests. The pruned serving paths preserve this
// bit-identity: see the blockmax.go header for why every skip decision
// is provably safe.
type OnlineIndex struct {
	n      int
	shards []*onlineShard

	// epoch counts applied posts; incremented under the owning shard's
	// write lock, read by queries while holding every read lock (when no
	// writer can be mid-apply), so a query's reported epoch is exact.
	epoch atomic.Uint64

	// dir is the tag directory: tag → its posting list in every shard
	// (nil where the shard has none) plus the tag's index-wide impact
	// bound, so a query plans with ONE map lookup and ONE atomic load
	// per tag instead of a walk over every shard. Row-slot writes happen
	// only at list creation, under the owning shard's write lock plus
	// censusMu (serializing creators on different shards); queries read
	// the rows lock-free because they hold every shard's read lock,
	// which excludes all writers.
	dir map[tags.Tag]*dirRow

	// norm2[id] caches resource id's scoring norm: its squared norm, or
	// 0 when the resource has no posts (the exhaustive paths skip those
	// candidates) — one dense read on the selection hot path instead of
	// two pointer chases into the count vector. Each element is written
	// only by its owning shard's writer under that shard's lock and read
	// under the all-shards query view. Cold resources keep their entry:
	// the cache is how queries score candidates whose forward vector is
	// frozen (see residency.go).
	norm2 []float64

	// scratchPool recycles per-query state (visited set, tag plan, heap
	// backing) so the serving read path allocates nothing but its result.
	scratchPool sync.Pool

	// census counters, maintained incrementally on first-touch posting
	// creation so Stats is O(1) instead of a full posting-list walk.
	// censusMu nests inside a shard write lock (never the reverse).
	censusMu     sync.Mutex
	tagPostings  map[tags.Tag]int
	postingCount int
	maxPostings  int

	topkQueries      atomic.Uint64
	searchQueries    atomic.Uint64
	blocksSkipped    atomic.Uint64
	tagsDeferred     atomic.Uint64
	candidatesScored atomic.Uint64

	// Residency meters (see residency.go): cold forward vectors, their
	// packed footprint, and the transition counters.
	coldVecs        atomic.Int64
	frozenBytes     atomic.Int64
	vecEvictions    atomic.Uint64
	vecRehydrations atomic.Uint64
}

// onlineShard owns the resources with id ≡ shardID (mod S): their count
// vectors and the posting lists of every tag those resources use.
type onlineShard struct {
	mu sync.RWMutex
	// postings maps tag → the shard-local block-max posting list.
	postings map[tags.Tag]*bmList
	// vecs[l] is the count vector of global resource l*S + shardID, in
	// map form (a forward vector holds a few dozen tags of a vocabulary
	// of tens of thousands, so a dense base would be mostly zeros); the
	// index owns these (they are mutated by Apply). A nil slot means the
	// resource is cold: its vector lives packed in frozen[l].
	vecs []*sparse.Counts
	// frozen[l] is resource l*S + shardID's frozen blob when its forward
	// vector is evicted, nil while it is live (see residency.go).
	frozen [][]byte
}

// NewOnlineIndex seeds an online index from the given rfd snapshots.
// The index keeps its own map-form copies, so the caller keeps
// ownership of rfds. shards ≤ 0 selects 1. Seeding is the only corpus
// scan the index ever performs; every later change arrives through
// Apply.
func NewOnlineIndex(rfds []*sparse.Counts, shards int) *OnlineIndex {
	return NewOnlineIndexStreamed(len(rfds), shards, func(i int, fn func(t tags.Tag, c int64)) int {
		rfds[i].ForEach(fn)
		return rfds[i].Posts()
	})
}

// NewOnlineIndexStreamed seeds an online index with every forward
// vector live. each streams resource i's non-zero (tag, count) support
// in any order and returns its post count — the shape of
// Engine.ForEachEntry — so a server seeds its index without cloning
// the engine's count vectors.
func NewOnlineIndexStreamed(n, shards int, each func(i int, fn func(t tags.Tag, c int64)) int) *OnlineIndex {
	return seedIndex(n, shards, false, each)
}

// seedIndex is the one seeding pass behind every constructor: postings,
// the norm² cache and the forward vectors — map-form live vectors, or
// frozen blobs when cold — are built in one streaming pass over each.
func seedIndex(n, shards int, cold bool, each func(i int, fn func(t tags.Tag, c int64)) int) *OnlineIndex {
	if shards <= 0 {
		shards = 1
	}
	ix := &OnlineIndex{
		n:           n,
		shards:      make([]*onlineShard, shards),
		dir:         make(map[tags.Tag]*dirRow),
		norm2:       make([]float64, n),
		tagPostings: make(map[tags.Tag]int),
	}
	for s := range ix.shards {
		ix.shards[s] = &onlineShard{postings: make(map[tags.Tag]*bmList)}
	}
	// trueNorm2 keeps the bound-seeding norms even for post-less
	// resources, which the dense cache deliberately zeroes (its zero IS
	// the "cannot score" marker the selection paths test).
	trueNorm2 := make([]float64, n)
	var ts []tags.Tag
	var ns []int64
	for i := 0; i < n; i++ {
		ts, ns = ts[:0], ns[:0]
		n2 := 0.0
		posts := each(i, func(t tags.Tag, c int64) {
			ts = append(ts, t)
			ns = append(ns, c)
			n2 += float64(c) * float64(c)
		})
		sort.Sort(&entrySorter{ts: ts, ns: ns})
		s := i % shards
		sh := ix.shards[s]
		for j, t := range ts {
			ix.posting(s, t).seedAppend(int32(i), ns[j])
			ix.notePosting(t)
		}
		if cold {
			blob := encodeFrozenVec(posts, ts, ns)
			sh.vecs = append(sh.vecs, nil)
			sh.frozen = append(sh.frozen, blob)
			ix.frozenBytes.Add(int64(len(blob)))
		} else {
			c, err := sparse.FromEntries(0, ts, ns, posts)
			if err != nil {
				panic(fmt.Sprintf("ir: resource %d seed vector invalid: %v", i, err))
			}
			sh.vecs = append(sh.vecs, c)
			sh.frozen = append(sh.frozen, nil)
		}
		trueNorm2[i] = n2
		if posts > 0 {
			ix.norm2[i] = n2
		}
	}
	if cold {
		ix.coldVecs.Store(int64(n))
	}
	for _, sh := range ix.shards {
		for _, pl := range sh.postings {
			pl.finalize(func(id int32) float64 { return trueNorm2[id] })
		}
	}
	return ix
}

// entrySorter orders parallel (tag, count) slices by ascending tag.
type entrySorter struct {
	ts []tags.Tag
	ns []int64
}

func (e *entrySorter) Len() int           { return len(e.ts) }
func (e *entrySorter) Less(a, b int) bool { return e.ts[a] < e.ts[b] }
func (e *entrySorter) Swap(a, b int) {
	e.ts[a], e.ts[b] = e.ts[b], e.ts[a]
	e.ns[a], e.ns[b] = e.ns[b], e.ns[a]
}

// posting returns shard s's posting list for t, creating it — and its
// tag-directory row — on first use. Caller holds shard s's write lock
// (or is the constructor); censusMu serializes directory writers racing
// from different shards.
func (ix *OnlineIndex) posting(s int, t tags.Tag) *bmList {
	sh := ix.shards[s]
	pl := sh.postings[t]
	if pl == nil {
		pl = &bmList{shard: int32(s)}
		ix.censusMu.Lock()
		row := ix.dir[t]
		if row == nil {
			row = &dirRow{slots: make([]rowSlot, len(ix.shards))}
			ix.dir[t] = row
		}
		row.slots[s].pl = pl
		ix.censusMu.Unlock()
		pl.row = row
		sh.postings[t] = pl
	}
	return pl
}

// notePosting records a newly created posting entry in the census. Safe
// under any shard lock; first-touch only, so steady-state ingest never
// takes censusMu.
func (ix *OnlineIndex) notePosting(t tags.Tag) {
	ix.censusMu.Lock()
	ix.postingCount++
	n := ix.tagPostings[t] + 1
	ix.tagPostings[t] = n
	if n > ix.maxPostings {
		ix.maxPostings = n
	}
	ix.censusMu.Unlock()
}

// N returns the number of indexed resources.
func (ix *OnlineIndex) N() int { return ix.n }

// locate maps a global resource id to its shard and local slot.
func (ix *OnlineIndex) locate(i int) (*onlineShard, int) {
	return ix.shards[i%len(ix.shards)], i / len(ix.shards)
}

// Apply folds one ingested post into the index: the resource's count
// vector absorbs the post (each tag's count-delta is +1 — a post names
// a tag at most once) and the touched posting lists are bumped in
// place, each bump handed the tag's pre-post count from the vector and
// preserving its list's count-descending block-max order in
// O(log n + run) (see bmList.bumpOne). Safe for concurrent use; posts
// for resources on different shards proceed in parallel. Callers must
// apply each resource's posts in ingest order (the engine's subscriber
// hook runs under the shard lock, which guarantees exactly that).
func (ix *OnlineIndex) Apply(resource int, p tags.Post) {
	if resource < 0 || resource >= ix.n || len(p) == 0 {
		return
	}
	s := resource % len(ix.shards)
	sh, l := ix.shards[s], resource/len(ix.shards)
	sh.mu.Lock()
	if sh.frozen[l] != nil {
		// A post makes the resource hot: thaw before the bump so the
		// live vector and the posting lists never fork.
		ix.thawLocked(sh, l, resource)
	}
	vec := sh.vecs[l]
	vec.Add(p)
	norm2 := vec.Norm2()
	ix.norm2[resource] = norm2 // a post landed, so the resource scores
	for _, t := range p {
		if ix.posting(s, t).bumpOne(int32(resource), int32(vec.Get(t)-1), norm2, ix.norm2) {
			ix.notePosting(t)
		}
	}
	ix.epoch.Add(1)
	sh.mu.Unlock()
}

// PostApplied is the engine-subscriber face of Apply: the engine calls
// it once per applied post, under the owning engine-shard lock, with
// the post's tags and the exact norm²/post-count deltas it caused. The
// index re-derives both deltas from its own integer counts (Counts.Add
// is bit-identical arithmetic), so the delta fields are advisory here;
// they exist for subscribers that do not mirror count vectors.
func (ix *OnlineIndex) PostApplied(resource int, p tags.Post, norm2Delta float64) {
	ix.Apply(resource, p)
}

// rlockAll acquires every shard's read lock in shard order. Once the
// last lock lands no writer can be mid-apply anywhere, so the state —
// and the epoch — form a consistent point-in-time view until
// runlockAll.
func (ix *OnlineIndex) rlockAll() {
	for _, sh := range ix.shards {
		sh.mu.RLock()
	}
}

func (ix *OnlineIndex) runlockAll() {
	for _, sh := range ix.shards {
		sh.mu.RUnlock()
	}
}

// TopK returns the k most similar resources to subject over the live
// state, bit-identical to BuildInverted(SnapshotRFDs()).TopK (and to
// TopKExhaustive) at the returned epoch, without cloning or rescanning
// anything. It runs the block-max pruned executor: subject tags are
// processed by decreasing score bound and posting blocks that provably
// cannot reach the current kth score are skipped unscored. Invalid
// subjects or k ≤ 0 return nil.
func (ix *OnlineIndex) TopK(subject, k int) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, ix.epoch.Load()
	}
	return ix.execute(k, true, func(sc *queryScratch) prunedQuery {
		pq := prunedQuery{exclude: subject}
		// The dense norm entry is 0 exactly when the subject has no posts
		// or a zero norm, hot or cold alike; such a subject only pads.
		n2 := ix.norm2[subject]
		if n2 == 0 {
			return pq
		}
		// One pass lifts the subject's support and weights together; the
		// executor orders tags by bound itself, and the exact-integer dots
		// make every downstream sum order-independent, so the ascending
		// order Support would give buys nothing here. A cold subject's
		// support streams off its blob instead (and marks it for promotion
		// — a queried subject is hot by definition).
		sc.support, sc.weights = sc.support[:0], sc.weights[:0]
		lift := func(t tags.Tag, c int64) {
			sc.support = append(sc.support, t)
			sc.weights = append(sc.weights, float64(c))
		}
		sh, l := ix.locate(subject)
		if subj := sh.vecs[l]; subj != nil {
			subj.ForEach(lift)
		} else {
			scanFrozenVec(sh.frozen[l], subject, lift)
			sc.promote = append(sc.promote, int32(subject))
		}
		pq.tags, pq.weights, pq.subjNorm = sc.support, sc.weights, math.Sqrt(n2)
		return pq
	})
}

// execute is the shell every serving query runs in: it takes the
// all-shards read view, checks out a scratch, lets build assemble the
// query against that view, runs the pruned executor (pad selects TopK's
// zero-similarity padding), and promotes the cold resources the query
// decoded once the read locks drop.
func (ix *OnlineIndex) execute(k int, pad bool, build func(sc *queryScratch) prunedQuery) ([]Scored, uint64) {
	ix.rlockAll()
	epoch := ix.epoch.Load()
	sc := ix.getScratch()
	pq := build(sc)
	res := ix.runPruned(&pq, k, sc, pad)
	var promote []int32
	if len(sc.promote) > 0 {
		// Copied out: promotion runs after the scratch returns to the pool.
		promote = append(promote, sc.promote...)
	}
	ix.putScratch(sc)
	ix.runlockAll()
	ix.promote(promote)
	return res, epoch
}

// norm2At adapts the dense norm cache to the rank finalizers' resolver
// shape: 0 means "cannot score" for hot and cold resources alike.
func (ix *OnlineIndex) norm2At(id int32) float64 { return ix.norm2[id] }

// TopKExhaustive is the pre-pruning serving path, preserved verbatim as
// the pruning oracle and benchmark baseline: it touches every posting
// of every subject tag and accumulates dot products in a per-query map.
// Results are bit-identical to TopK at the same epoch.
func (ix *OnlineIndex) TopKExhaustive(subject, k int) ([]Scored, uint64) {
	ix.topkQueries.Add(1)
	if k <= 0 || subject < 0 || subject >= ix.n {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	defer ix.runlockAll()
	epoch := ix.epoch.Load()
	sh, l := ix.locate(subject)
	n2 := ix.norm2[subject]
	if n2 == 0 {
		return rankTopK(ix.n, subject, k, 0, nil, ix.norm2At), epoch
	}
	subjNorm := math.Sqrt(n2)
	var support []tags.Tag
	var weights []float64
	lift := func(t tags.Tag, c int64) {
		support = append(support, t)
		weights = append(weights, float64(c))
	}
	if subj := sh.vecs[l]; subj != nil {
		subj.ForEach(lift)
	} else {
		// The oracle path reads a cold subject transiently — it never
		// promotes, so pruned-vs-exhaustive comparisons leave residency
		// exactly as they found it.
		scanFrozenVec(sh.frozen[l], subject, lift)
	}
	dots := make(map[int32]float64)
	for i, t := range support {
		sc := weights[i]
		for _, osh := range ix.shards {
			pl := osh.postings[t]
			if pl == nil {
				continue
			}
			for _, p := range pl.entries {
				if int(p.id) == subject {
					continue
				}
				dots[p.id] += sc * float64(p.count)
			}
		}
	}
	return rankTopK(ix.n, subject, k, subjNorm, dots, ix.norm2At), epoch
}

// normalizeQuery enforces the tags.Post invariant (sorted, distinct,
// non-negative) on a search query, returning the input unchanged when
// it already holds. Queries that normalize to nothing (or contain
// invalid ids) return nil.
func normalizeQuery(q tags.Post) tags.Post {
	clean := true
	for i, t := range q {
		if t < 0 || (i > 0 && t <= q[i-1]) {
			clean = false
			break
		}
	}
	if clean {
		return q
	}
	p, err := tags.NewPost(q...)
	if err != nil {
		return nil
	}
	return p
}

// Search ranks resources by cosine similarity between the query tag set
// (a unit-count vector: each distinct tag weighs 1) and every live rfd
// — the paper's query-by-tag-set retrieval operation. The query is
// deduplicated internally, so a tag listed twice scores exactly like a
// tag listed once (callers below the HTTP layer used to see inflated
// dots against an un-deduplicated norm). Only resources sharing at
// least one query tag can score above zero, so the result holds at most
// min(k, |candidates|) entries, score-descending with ties broken
// toward smaller ids; zero-overlap resources are not padded in (an
// empty result means nothing matched). Like TopK it runs the block-max
// pruned executor, bit-identical to SearchExhaustive. Returns the
// epoch-consistent view it scored against.
func (ix *OnlineIndex) Search(query tags.Post, k int) ([]Scored, uint64) {
	return ix.SearchOwned(query, k, nil)
}

// SearchExhaustive is the pre-pruning Search, preserved as the pruning
// oracle and benchmark baseline (with the same internal query dedup).
// Results are bit-identical to Search at the same epoch.
func (ix *OnlineIndex) SearchExhaustive(query tags.Post, k int) ([]Scored, uint64) {
	ix.searchQueries.Add(1)
	query = normalizeQuery(query)
	if k <= 0 || len(query) == 0 || ix.n == 0 {
		return nil, ix.epoch.Load()
	}
	ix.rlockAll()
	defer ix.runlockAll()
	epoch := ix.epoch.Load()
	dots := make(map[int32]float64)
	for _, t := range query {
		for _, sh := range ix.shards {
			pl := sh.postings[t]
			if pl == nil {
				continue
			}
			for _, p := range pl.entries {
				dots[p.id] += float64(p.count)
			}
		}
	}
	qNorm2 := float64(len(query))
	sel := newTopKSelector(k)
	for id, dot := range dots {
		if dot == 0 {
			continue // a fully-removed posting; cannot score
		}
		n2 := ix.norm2[id]
		if n2 == 0 {
			continue
		}
		s := dot / math.Sqrt(qNorm2*n2)
		if s > 1 {
			s = 1
		}
		sel.push(int(id), s)
	}
	return sel.results(), epoch
}

// Epoch returns the number of posts applied since construction.
func (ix *OnlineIndex) Epoch() uint64 { return ix.epoch.Load() }

// PostingEntries returns tag t's live postings in ascending resource-id
// order — the posting-for-posting equivalence surface against
// BuildInverted. Zero-count entries (possible only if a count was fully
// removed) are elided.
func (ix *OnlineIndex) PostingEntries(t tags.Tag) []Posting {
	ix.rlockAll()
	defer ix.runlockAll()
	var out []Posting
	for _, sh := range ix.shards {
		pl := sh.postings[t]
		if pl == nil {
			continue
		}
		for _, p := range pl.entries {
			if p.count != 0 {
				out = append(out, Posting{ID: p.id, Count: int64(p.count)})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Tags returns every tag with a non-empty posting list in ascending
// order.
func (ix *OnlineIndex) Tags() []tags.Tag {
	ix.rlockAll()
	defer ix.runlockAll()
	seen := make(map[tags.Tag]bool)
	for _, sh := range ix.shards {
		for t, pl := range sh.postings {
			if len(pl.entries) > 0 {
				seen[t] = true
			}
		}
	}
	out := make([]tags.Tag, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// OnlineStats is a point-in-time census of the online index, exposed
// through Service.QueryStats and GET /info.
type OnlineStats struct {
	// Epoch is the number of posts applied since construction (or since
	// the recovery-time reseed — a restarted server starts at 0 again
	// with the recovered state already folded into the seed).
	Epoch uint64 `json:"epoch"`
	// Resources is the indexed corpus size; Shards the partition width.
	Resources int `json:"resources"`
	Shards    int `json:"shards"`
	// Tags and Postings size the inverted structure; MaxPostings is the
	// longest single posting list (the worst-case candidate fan-out of
	// one query tag). All three are O(1) reads of incrementally
	// maintained counters.
	Tags        int `json:"tags"`
	Postings    int `json:"postings"`
	MaxPostings int `json:"max_postings"`
	// TopKQueries / SearchQueries count queries executed by the index
	// since boot (Service-level cache hits never reach the index; see
	// CacheHits).
	TopKQueries   uint64 `json:"topk_queries"`
	SearchQueries uint64 `json:"search_queries"`
	// BlocksSkipped / TagsDeferred / CandidatesScored meter the pruned
	// executor: posting blocks whose upper bound could not beat the
	// running kth score (skipped unscored), whole posting lists the
	// MaxScore condition ruled out of the scan (survivors re-add their
	// contribution with one lookup each), and candidates that survived
	// to an exact rescore.
	BlocksSkipped    uint64 `json:"blocks_skipped"`
	TagsDeferred     uint64 `json:"tags_deferred"`
	CandidatesScored uint64 `json:"candidates_scored"`
	// CacheHits / CacheMisses / CacheEntries describe the Service-level
	// epoch-keyed result cache (zero when the index is driven directly).
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// ColdVecs counts resources whose forward vector is currently
	// frozen (their postings stay live); FrozenBytes is the packed
	// footprint of those blobs. VecEvictions / VecRehydrations count
	// freeze and thaw transitions since boot (see residency.go).
	ColdVecs        int64  `json:"cold_vecs"`
	FrozenBytes     int64  `json:"frozen_bytes"`
	VecEvictions    uint64 `json:"vec_evictions"`
	VecRehydrations uint64 `json:"vec_rehydrations"`
}

// Stats reads the index census in O(1): every field is an atomic or an
// incrementally maintained counter — no shard lock, no posting walk. A
// census read racing ingest may see a posting-count a hair ahead of the
// epoch it reports; each counter is individually exact.
func (ix *OnlineIndex) Stats() OnlineStats {
	st := OnlineStats{
		Epoch:            ix.epoch.Load(),
		Resources:        ix.n,
		Shards:           len(ix.shards),
		TopKQueries:      ix.topkQueries.Load(),
		SearchQueries:    ix.searchQueries.Load(),
		BlocksSkipped:    ix.blocksSkipped.Load(),
		TagsDeferred:     ix.tagsDeferred.Load(),
		CandidatesScored: ix.candidatesScored.Load(),
		ColdVecs:         ix.coldVecs.Load(),
		FrozenBytes:      ix.frozenBytes.Load(),
		VecEvictions:     ix.vecEvictions.Load(),
		VecRehydrations:  ix.vecRehydrations.Load(),
	}
	ix.censusMu.Lock()
	st.Tags = len(ix.tagPostings)
	st.Postings = ix.postingCount
	st.MaxPostings = ix.maxPostings
	ix.censusMu.Unlock()
	return st
}
