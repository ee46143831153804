package ir

import (
	"math/rand"
	"sort"
	"testing"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
)

// mergeScored merges per-node partial rankings under the engine's
// total order (score desc, id asc) and truncates to k — the gateway's
// merge, restated locally so the ir-level property is self-contained.
func mergeScored(lists [][]Scored, k int) []Scored {
	var all []Scored
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TopKWeighted degenerates to TopK when fed the subject's own rfd with
// no ownership mask: bit-identical, every subject, several k.
func TestTopKWeightedMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, dim = 50, 25
	model := make([]*sparse.Counts, n)
	for i := range model {
		model[i] = sparse.NewCounts()
		if i%7 != 0 { // a few zero-norm subjects
			for p := 0; p < 1+rng.Intn(5); p++ {
				model[i].Add(randomPost(rng, dim))
			}
		}
	}
	ix := NewOnlineIndex(model, 4)
	for subject := 0; subject < n; subject++ {
		entries, norm2, _, _ := ix.RFDEntries(subject)
		for _, k := range []int{1, 5, n} {
			got, _ := ix.TopKWeighted(entries, norm2, subject, k, nil)
			want, _ := ix.TopK(subject, k)
			if len(got) != len(want) {
				t.Fatalf("subject %d k=%d: %d vs %d results", subject, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("subject %d k=%d rank %d: %+v vs %+v", subject, k, i, got[i], want[i])
				}
			}
		}
	}
}

// SearchOwned with a nil mask is Search, bit for bit.
func TestSearchOwnedNilMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	base := randomIndex(32, 60, 20)
	ix := NewOnlineIndex(cloneAll(base.RFDs()), 3)
	for trial := 0; trial < 40; trial++ {
		q := randomPost(rng, 20)
		k := 1 + rng.Intn(10)
		got, _ := ix.SearchOwned(q, k, nil)
		want, _ := ix.Search(q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// The distributed execution property the whole cluster design rests on:
// partition resources across three "nodes" (each an OnlineIndex seeded
// with the same primed state, receiving only its owned posts), run the
// two-phase scatter — subject rfd from its owner, TopKWeighted with
// each node's ownership mask — merge under (score desc, id asc), and
// the result must be bit-identical to one index that absorbed every
// post. Same for SearchOwned.
func TestClusterPartitionMergesBitIdentical(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		rng := rand.New(rand.NewSource(seed))
		const n, dim, nodes = 45, 22, 3
		owner := func(id int) int { return int((int64(id)*2654435761 + 17) % nodes) } // arbitrary deterministic spread
		ownedBy := func(node int) func(int) bool {
			return func(id int) bool { return owner(id) == node }
		}

		// Identical primed state everywhere, like nodes booting the same
		// -n/-seed corpus.
		primed := make([]*sparse.Counts, n)
		for i := range primed {
			primed[i] = sparse.NewCounts()
			if i%6 != 0 {
				for p := 0; p < rng.Intn(4); p++ {
					primed[i].Add(randomPost(rng, dim))
				}
			}
		}
		reference := NewOnlineIndex(cloneAll(primed), 4)
		shard := make([]*OnlineIndex, nodes)
		for j := range shard {
			shard[j] = NewOnlineIndex(cloneAll(primed), 1+j) // distinct shard widths on purpose
		}

		// Arbitrary interleaving of live posts, each applied to the
		// reference and to its owner node only.
		for step := 0; step < 300; step++ {
			id := rng.Intn(n)
			p := randomPost(rng, dim)
			reference.Apply(id, p)
			shard[owner(id)].Apply(id, p)
		}

		for subject := 0; subject < n; subject++ {
			entries, norm2, _, _ := shard[owner(subject)].RFDEntries(subject)
			for _, k := range []int{1, 7, n} {
				lists := make([][]Scored, nodes)
				for j := range shard {
					lists[j], _ = shard[j].TopKWeighted(entries, norm2, subject, k, ownedBy(j))
				}
				got := mergeScored(lists, k)
				want, _ := reference.TopK(subject, k)
				if len(got) != len(want) {
					t.Fatalf("seed %d subject %d k=%d: merged %d vs %d results", seed, subject, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d subject %d k=%d rank %d: merged %+v vs single-node %+v",
							seed, subject, k, i, got[i], want[i])
					}
				}
			}
		}

		for trial := 0; trial < 30; trial++ {
			q := randomPost(rng, dim)
			k := 1 + rng.Intn(12)
			lists := make([][]Scored, nodes)
			for j := range shard {
				lists[j], _ = shard[j].SearchOwned(q, k, ownedBy(j))
			}
			got := mergeScored(lists, k)
			want, _ := reference.Search(q, k)
			if len(got) != len(want) {
				t.Fatalf("seed %d search trial %d: merged %d vs %d results", seed, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d search trial %d rank %d: merged %+v vs single-node %+v",
						seed, trial, i, got[i], want[i])
				}
			}
		}
	}

	// A Zipf corpus large and skewed enough that every leg prunes, with
	// cold resources on every node: merged legs must still match the
	// exhaustive oracles on one index that absorbed every post.
	t.Run("zipf", func(t *testing.T) {
		const n, dim, nodes = 2000, 300, 3
		model, rng, z := zipfModel(44, n, dim, 6)
		owner := func(id int) int { return int((int64(id)*2654435761 + 17) % nodes) }
		ownedBy := func(node int) func(int) bool {
			return func(id int) bool { return owner(id) == node }
		}
		reference := NewOnlineIndex(cloneAll(model), 8)
		shard := make([]*OnlineIndex, nodes)
		for j := range shard {
			shard[j] = NewOnlineIndex(cloneAll(model), 2+3*j)
		}
		for step := 0; step < 3000; step++ {
			id := rng.Intn(n)
			p := zipfPost(rng, z, dim)
			reference.Apply(id, p)
			shard[owner(id)].Apply(id, p)
		}
		for trial := 0; trial < 120; trial++ {
			if trial%30 == 0 {
				for _, ix := range shard {
					evictRandom(rng, ix, n)
				}
			}
			subject := rng.Intn(n)
			entries, norm2, _, _ := shard[owner(subject)].RFDEntries(subject)
			for _, k := range []int{1, 10, 40} {
				lists := make([][]Scored, nodes)
				for j := range shard {
					lists[j], _ = shard[j].TopKWeighted(entries, norm2, subject, k, ownedBy(j))
				}
				want, _ := reference.TopKExhaustive(subject, k)
				assertIdentical(t, tSprintf("zipf subject %d k=%d", subject, k), mergeScored(lists, k), want)
			}
			q := zipfPost(rng, z, dim)
			k := 1 + rng.Intn(20)
			lists := make([][]Scored, nodes)
			for j := range shard {
				lists[j], _ = shard[j].SearchOwned(q, k, ownedBy(j))
			}
			want, _ := reference.SearchExhaustive(q, k)
			assertIdentical(t, tSprintf("zipf search %v k=%d", q, k), mergeScored(lists, k), want)
		}
		for j, ix := range shard {
			st := ix.Stats()
			if st.BlocksSkipped == 0 || st.TagsDeferred == 0 || st.VecEvictions == 0 {
				t.Fatalf("node %d legs did not prune over a tiered index: %+v", j, st)
			}
			t.Logf("node %d: %d blocks skipped, %d tags deferred, %d candidates scored, %d rehydrations",
				j, st.BlocksSkipped, st.TagsDeferred, st.CandidatesScored, st.VecRehydrations)
		}
	})
}

// RFDEntries round-trips the exact live vector: entries in ascending
// tag order, counts and norm matching the index's own view.
func TestRFDEntriesShape(t *testing.T) {
	base := randomIndex(51, 20, 15)
	ix := NewOnlineIndex(cloneAll(base.RFDs()), 2)
	ix.Apply(3, tags.MustPost(1, 2))
	entries, norm2, posts, epoch := ix.RFDEntries(3)
	if epoch != 1 {
		t.Fatalf("epoch = %d after one apply", epoch)
	}
	var rebuilt = sparse.NewCounts()
	prev := tags.Tag(-1)
	for _, e := range entries {
		if e.Tag <= prev {
			t.Fatalf("entries not in ascending tag order: %d after %d", e.Tag, prev)
		}
		prev = e.Tag
		for c := int64(0); c < e.Count; c++ {
			rebuilt.Add(tags.MustPost(e.Tag))
		}
	}
	if rebuilt.Norm2() != norm2 {
		t.Fatalf("norm2 %v does not match rebuilt %v", norm2, rebuilt.Norm2())
	}
	if posts == 0 {
		t.Fatal("posts = 0 after an apply")
	}
	if e, _, _, _ := ix.RFDEntries(-1); e != nil {
		t.Fatal("out-of-range id returned entries")
	}
	if e, _, _, _ := ix.RFDEntries(99); e != nil {
		t.Fatal("out-of-range id returned entries")
	}
}
