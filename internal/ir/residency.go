// Vector residency for the online index — the query-side half of the
// hot/cold resource tier.
//
// A cold resource's FORWARD vector (the count vector queries rescore
// candidates against) is replaced by a compact frozen blob: post count,
// tag count, then delta-encoded (tag, count) pairs. Its POSTING entries
// stay exactly where they were — posting lists, block maxima and the
// dense norm² cache are what the pruned executor bounds and skips with,
// and they are cheap (8 bytes per posting); freezing them would trade
// the pruning away to save almost nothing. The result: a cold resource
// still participates in every query bound-for-bound, and only the paths
// that genuinely need its full vector ever touch the blob —
//
//   - the subject of a TopK (its support and weights seed the plan),
//   - candidates that survive pruning AND owe contributions to deferred
//     tags (the phase-2 rescue in pruneShard),
//   - an Apply landing on the resource (rehydrated under the write lock
//     before the count is bumped, so index state never forks), and
//   - RFDEntries, the cluster scatter read (decoded transiently — a
//     remote read does not make a resource locally hot).
//
// The first two promote the resource back to a live vector AFTER the
// query releases its read locks (queries never upgrade to write locks);
// a resource nobody queries stays frozen indefinitely. Promotion does
// not bump the epoch: thawing changes no observable state, so cached
// results keyed by the epoch remain exactly as valid as they were.
//
// Bit-identity: a frozen blob stores the exact integer counts, and
// sparse.FromEntries rebuilds norm², mass and placement from integers
// far below 2^53, so a thawed vector scores bit-for-bit like one that
// was never frozen — asserted by the equivalence tests against a
// never-evicted index.
package ir

import (
	"fmt"

	"incentivetag/internal/codec"
	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

const frozenVecPrefix = "ir: frozen vec"

// encodeFrozenVec packs (posts, entries) into the frozen blob form. ts
// must be strictly ascending; ns parallel positive counts.
func encodeFrozenVec(posts int, ts []tags.Tag, ns []int64) []byte {
	buf := make([]byte, 0, 4+2*len(ts)*3)
	buf = codec.AppendUvarint(buf, uint64(posts))
	buf = codec.AppendUvarint(buf, uint64(len(ts)))
	d := codec.NewDelta(-1)
	for i, t := range ts {
		gap, ok := d.Gap(int64(t))
		if !ok {
			panic(fmt.Sprintf("ir: frozen vec support not ascending at tag %d", t))
		}
		buf = codec.AppendUvarint(buf, gap)
		buf = codec.AppendUvarint(buf, uint64(ns[i]))
	}
	return buf
}

// freezeVec encodes a live count vector into its frozen blob.
func freezeVec(c *sparse.Counts) []byte {
	support := c.Support()
	ns := make([]int64, len(support))
	for i, t := range support {
		ns[i] = c.Get(t)
	}
	return encodeFrozenVec(c.Posts(), support, ns)
}

// scanFrozenVec streams a frozen blob's (tag, count) entries in
// ascending tag order and returns its post count. A malformed blob is
// an impossibility (blobs are produced by freezeVec or validated at
// seed time), so damage panics loudly instead of corrupting a ranking.
func scanFrozenVec(blob []byte, id int, fn func(t tags.Tag, n int64)) (posts int) {
	r := codec.NewReader(blob, frozenVecPrefix)
	p := r.Uvarint("posts")
	n := r.Length("tag count", 1<<24)
	d := codec.NewDelta(-1)
	for j := 0; j < n && r.Err() == nil; j++ {
		t := d.Absorb(r.Uvarint("tag delta"))
		c := r.Uvarint("count")
		if r.Err() != nil {
			break
		}
		if fn != nil {
			fn(tags.Tag(t), int64(c))
		}
	}
	if err := r.Finish(); err != nil {
		panic(fmt.Sprintf("ir: resource %d frozen record corrupt: %v", id, err))
	}
	return int(p)
}

// frozenDeferredDot is the phase-2 rescue for a COLD candidate: the
// deferred tags' contribution read straight off the blob, one transient
// pass, no allocation, no rehydration. Each term is an exact integer
// product, so the blob-order summation is bit-identical to the
// hot path's deferred-order Get loop.
func frozenDeferredDot(blob []byte, id int, deferred []deferredTag) float64 {
	dot := 0.0
	scanFrozenVec(blob, id, func(t tags.Tag, n int64) {
		for j := range deferred {
			if deferred[j].t == t {
				dot += deferred[j].weight * float64(n)
				return
			}
		}
	})
	return dot
}

// thawLocked rebuilds shard-local resource l (global id) from its
// frozen blob into a map-form vector, the form every live forward
// vector takes. Caller holds the shard's write lock.
func (ix *OnlineIndex) thawLocked(sh *onlineShard, l, id int) {
	blob := sh.frozen[l]
	ts := make([]tags.Tag, 0, 16)
	ns := make([]int64, 0, 16)
	posts := scanFrozenVec(blob, id, func(t tags.Tag, n int64) {
		ts = append(ts, t)
		ns = append(ns, n)
	})
	c, err := sparse.FromEntries(0, ts, ns, posts)
	if err != nil {
		panic(fmt.Sprintf("ir: resource %d frozen record corrupt: %v", id, err))
	}
	sh.vecs[l] = c
	sh.frozen[l] = nil
	ix.frozenBytes.Add(-int64(len(blob)))
	ix.coldVecs.Add(-1)
	ix.vecRehydrations.Add(1)
}

// promote rehydrates the given cold resources under their shards' write
// locks — called AFTER a query has released its read view, with the ids
// the query actually had to decode (the subject and the pruning
// survivors; see the package header). A resource another writer already
// thawed in the gap is skipped. The epoch is deliberately not bumped:
// residency is not observable state.
func (ix *OnlineIndex) promote(ids []int32) {
	for _, id32 := range ids {
		id := int(id32)
		sh, l := ix.locate(id)
		sh.mu.Lock()
		if sh.frozen[l] != nil {
			ix.thawLocked(sh, l, id)
		}
		sh.mu.Unlock()
	}
}

// Evict freezes the given resources' forward vectors, leaving their
// postings (and so every query bound) in place. Unknown ids and
// already-cold resources are skipped; returns how many vectors were
// frozen. Safe for concurrent use with queries and Apply — eviction
// takes each owning shard's write lock, and a query that later needs a
// frozen vector reads the blob transiently.
func (ix *OnlineIndex) Evict(ids []int) int {
	n := 0
	for _, id := range ids {
		if id < 0 || id >= ix.n {
			continue
		}
		sh, l := ix.locate(id)
		sh.mu.Lock()
		if c := sh.vecs[l]; c != nil {
			blob := freezeVec(c)
			sh.frozen[l] = blob
			sh.vecs[l] = nil
			ix.frozenBytes.Add(int64(len(blob)))
			ix.coldVecs.Add(1)
			ix.vecEvictions.Add(1)
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// ResidentVec reports whether resource id's forward vector is live.
func (ix *OnlineIndex) ResidentVec(id int) bool {
	if id < 0 || id >= ix.n {
		return false
	}
	sh, l := ix.locate(id)
	sh.mu.RLock()
	hot := sh.vecs[l] != nil
	sh.mu.RUnlock()
	return hot
}

// NewOnlineIndexFrozen seeds an online index with EVERY forward vector
// cold — the tiered cold-boot constructor. each has
// NewOnlineIndexStreamed's shape, so a server restoring from an mmap'd
// snapshot seeds its index without ever materializing a count vector:
// postings, norm² cache and frozen blobs are built in one streaming
// pass, and vectors thaw lazily (into map form) as queries and posts
// touch them. Queries on the result are bit-identical to
// NewOnlineIndex over the same state.
func NewOnlineIndexFrozen(n, shards int, each func(i int, fn func(t tags.Tag, c int64)) int) *OnlineIndex {
	return seedIndex(n, shards, true, each)
}
