package ir

import (
	"math"
	"math/rand"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// vecEntries reads resource id's forward vector, live or frozen, as a
// tag → count map. Caller holds the index's read locks.
func vecEntries(ix *OnlineIndex, id int) map[tags.Tag]int64 {
	out := map[tags.Tag]int64{}
	sh, l := ix.locate(id)
	if c := sh.vecs[l]; c != nil {
		c.ForEach(func(t tags.Tag, n int64) { out[t] = n })
	} else {
		scanFrozenVec(sh.frozen[l], id, func(t tags.Tag, n int64) { out[t] = n })
	}
	return out
}

// checkPostingsMatchVectors cross-checks the two halves of the index:
// every (tag, id, count) of a forward vector appears exactly once in its
// shard's posting list for the tag, and every posting entry is backed
// by its vector's entry.
func checkPostingsMatchVectors(t *testing.T, ctx string, ix *OnlineIndex) {
	t.Helper()
	ix.rlockAll()
	defer ix.runlockAll()
	type key struct {
		t  tags.Tag
		id int32
	}
	for s, sh := range ix.shards {
		want := map[key]int64{}
		for l := range sh.vecs {
			id := l*len(ix.shards) + s
			for tg, n := range vecEntries(ix, id) {
				want[key{tg, int32(id)}] = n
			}
		}
		seen := map[key]bool{}
		for tg, pl := range sh.postings {
			for i, e := range pl.entries {
				k := key{tg, e.id}
				if int(e.id)%len(ix.shards) != s {
					t.Fatalf("%s: shard %d tag %d entry %d holds foreign resource %d", ctx, s, tg, i, e.id)
				}
				if seen[k] {
					t.Fatalf("%s: shard %d tag %d lists resource %d twice", ctx, s, tg, e.id)
				}
				seen[k] = true
				if n, ok := want[k]; !ok || n != int64(e.count) {
					t.Fatalf("%s: shard %d tag %d resource %d: posting count %d, vector count %d (present %v)",
						ctx, s, tg, e.id, e.count, n, ok)
				}
			}
		}
		for k, n := range want {
			if !seen[k] {
				t.Fatalf("%s: shard %d: vector entry (tag %d, resource %d, count %d) has no posting", ctx, s, k.t, k.id, n)
			}
		}
	}
}

// After heavy Zipf ingest with evictions interleaved, postings and
// forward vectors must agree entry for entry, on a live-seeded index
// and on a frozen-seeded one. Both see the same posts, so their posting
// lists must also match in entry order and block bounds: thawing and
// freezing never touch a list.
func TestPostingsMatchForwardVectors(t *testing.T) {
	const n, dim, shards = 900, 40, 3
	model, rng, z := zipfModel(29, n, dim, 6)
	live := NewOnlineIndex(model, shards)
	cold := NewOnlineIndexFrozen(n, shards, func(i int, fn func(t tags.Tag, c int64)) int {
		model[i].ForEach(fn)
		return model[i].Posts()
	})
	checkPostingsMatchVectors(t, "live seed", live)
	checkPostingsMatchVectors(t, "frozen seed", cold)
	for step := 0; step < 6000; step++ {
		i, p := rng.Intn(n), zipfPost(rng, z, dim)
		live.Apply(i, p)
		cold.Apply(i, p)
		if step%500 == 250 {
			evictRandom(rng, live, n)
			evictRandom(rng, cold, n)
		}
		if step%2000 == 1999 {
			checkPostingsMatchVectors(t, tSprintf("live step %d", step), live)
			checkPostingsMatchVectors(t, tSprintf("frozen step %d", step), cold)
		}
	}
	multiBlock := 0
	for s := range live.shards {
		for tg, pl := range live.shards[s].postings {
			other := cold.shards[s].postings[tg]
			if other == nil || len(other.entries) != len(pl.entries) {
				t.Fatalf("shard %d tag %d: live and frozen-seeded lists differ in length", s, tg)
			}
			for i := range pl.entries {
				if pl.entries[i] != other.entries[i] {
					t.Fatalf("shard %d tag %d entry %d: %+v vs %+v", s, tg, i, pl.entries[i], other.entries[i])
				}
			}
			for b := range pl.blockImpact {
				if pl.blockImpact[b] != other.blockImpact[b] {
					t.Fatalf("shard %d tag %d block %d: bound %v vs %v", s, tg, b, pl.blockImpact[b], other.blockImpact[b])
				}
			}
			if len(pl.entries) > blockSize {
				multiBlock++
			}
		}
	}
	if multiBlock == 0 {
		t.Fatal("corpus produced no multi-block posting lists")
	}
}

// runSwapModel is the reference bump: an id→slot map and a count→run-head
// map over a plain block-max list, so a bump finds its entry and run
// head in O(1). The index's map-free bump must reproduce its entry order
// and block bounds exactly.
type runSwapModel struct {
	pl       bmList
	slot     map[int32]int32
	runStart map[int32]int32
}

func newRunSwapModel(pl *bmList) *runSwapModel {
	m := &runSwapModel{
		pl:       bmList{entries: append([]bmEntry(nil), pl.entries...), maxImpact: pl.maxImpact, blockImpact: append([]float64(nil), pl.blockImpact...)},
		slot:     map[int32]int32{},
		runStart: map[int32]int32{},
	}
	for i, e := range m.pl.entries {
		m.slot[e.id] = int32(i)
		if i == 0 || m.pl.entries[i-1].count != e.count {
			m.runStart[e.count] = int32(i)
		}
	}
	return m
}

func (m *runSwapModel) bump(id int32, norm2After float64, norms []float64) {
	pl := &m.pl
	idx, ok := m.slot[id]
	if !ok {
		j := int32(len(pl.entries))
		pl.entries = append(pl.entries, bmEntry{id: id, count: 1})
		m.slot[id] = j
		if _, ok := m.runStart[1]; !ok {
			m.runStart[1] = j
		}
		if int(j)%blockSize == 0 {
			pl.blockImpact = append(pl.blockImpact, 0)
		}
		pl.bound(int(j)/blockSize, impactBound(1, norm2After))
		return
	}
	c := pl.entries[idx].count
	j := m.runStart[c]
	if j != idx {
		pl.entries[idx], pl.entries[j] = pl.entries[j], pl.entries[idx]
		m.slot[pl.entries[idx].id] = idx
		m.slot[id] = j
		if bi, bj := int(idx)/blockSize, int(j)/blockSize; bi != bj {
			d := pl.entries[idx]
			if imp := impactBound(int64(d.count), norms[d.id]); imp > pl.blockImpact[bi] {
				pl.blockImpact[bi] = imp
			}
		}
	}
	if int(j)+1 < len(pl.entries) && pl.entries[j+1].count == c {
		m.runStart[c] = j + 1
	} else {
		delete(m.runStart, c)
	}
	if _, ok := m.runStart[c+1]; !ok {
		m.runStart[c+1] = j
	}
	pl.entries[j].count = c + 1
	pl.bound(int(j)/blockSize, impactBound(int64(c+1), norm2After))
}

// One tag whose list is a single equal-count run longer than
// 4·blockSize: bumping random members (and first-touching resources
// outside the run) must keep the list count-descending, keep every
// block bound above the current impact of its entries, and match the
// reference map-indexed bump entry for entry and bound for bound.
func TestBumpLongEqualRun(t *testing.T) {
	const run, extra = 4*blockSize + 77, 60
	const tg = tags.Tag(3)
	rfds := make([]*sparse.Counts, run+extra)
	for i := range rfds {
		rfds[i] = sparse.NewCounts()
		if i < run {
			rfds[i].Add(tags.MustPost(tg))
		}
		// Other tags vary the norms, so entries carry distinct impacts.
		for k := 0; k < i%4; k++ {
			rfds[i].Add(tags.MustPost(tags.Tag(10 + i%9)))
		}
	}
	ix := NewOnlineIndex(rfds, 1)
	pl := ix.shards[0].postings[tg]
	ref := newRunSwapModel(pl)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 4000; step++ {
		id := rng.Intn(run + extra)
		ix.Apply(id, tags.MustPost(tg))
		ref.bump(int32(id), ix.norm2[id], ix.norm2)
		if len(pl.entries) != len(ref.pl.entries) {
			t.Fatalf("step %d: %d entries vs reference %d", step, len(pl.entries), len(ref.pl.entries))
		}
		for i, e := range pl.entries {
			if e != ref.pl.entries[i] {
				t.Fatalf("step %d entry %d: %+v vs reference %+v", step, i, e, ref.pl.entries[i])
			}
			if i > 0 && e.count > pl.entries[i-1].count {
				t.Fatalf("step %d: count order broken at %d", step, i)
			}
			if imp := impactBound(int64(e.count), ix.norm2[e.id]); pl.blockImpact[i/blockSize] < imp {
				t.Fatalf("step %d entry %d: block bound %v < impact %v", step, i, pl.blockImpact[i/blockSize], imp)
			}
		}
		for b := range ref.pl.blockImpact {
			if math.Float64bits(pl.blockImpact[b]) != math.Float64bits(ref.pl.blockImpact[b]) {
				t.Fatalf("step %d block %d: bound %v vs reference %v", step, b, pl.blockImpact[b], ref.pl.blockImpact[b])
			}
		}
		if pl.maxImpact != ref.pl.maxImpact {
			t.Fatalf("step %d: list max %v vs reference %v", step, pl.maxImpact, ref.pl.maxImpact)
		}
	}
	if len(pl.blockImpact) <= 4 {
		t.Fatalf("run list spans only %d blocks", len(pl.blockImpact))
	}
}

// BenchmarkOnlineIndexApply prices one applied post: "zipf" is skewed
// ingest over a corpus with long, mixed-count posting lists; "long-run"
// is the map-free bump's worst case, where every post bumps a member of
// one equal-count run of 4096 entries that the bump must walk.
func BenchmarkOnlineIndexApply(b *testing.B) {
	b.Run("zipf", func(b *testing.B) {
		const n, dim = 4000, 2000
		model, rng, z := zipfModel(5, n, dim, 6)
		ix := NewOnlineIndex(model, 8)
		posts := make([]tags.Post, 4096)
		ids := make([]int, len(posts))
		for i := range posts {
			posts[i], ids[i] = zipfPost(rng, z, dim), rng.Intn(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(posts)
			ix.Apply(ids[j], posts[j])
		}
	})
	b.Run("long-run", func(b *testing.B) {
		const n = 4096
		p := tags.MustPost(7)
		rfds := make([]*sparse.Counts, n)
		for i := range rfds {
			rfds[i] = sparse.NewCounts()
			rfds[i].Add(p)
		}
		ix := NewOnlineIndex(rfds, 1)
		// Each round of n posts bumps every resource once, in an order
		// unrelated to the list's, so the whole run moves from count c to
		// c+1 and the run a bump walks stays long.
		rng := rand.New(rand.NewSource(9))
		orders := make([][]int, 8)
		for r := range orders {
			orders[r] = rng.Perm(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Apply(orders[i/n%len(orders)][i%n], p)
		}
	})
}
