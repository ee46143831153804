package main

import (
	"math/rand"
	"strconv"

	"incentivetag"
)

// Request generation. Every stream is a pure function of the corpus
// and the --seed flag; the serving stack only ever sees the generated
// requests.

// ref names one recorded post: a resource and a position in its
// recorded sequence.
type ref struct{ res, idx int32 }

// corpus is the shared input of all workloads: the Figure-6 scale
// generated corpus plus its recorded future posts.
type corpus struct {
	ds     *incentivetag.Dataset
	n      int
	future []ref // every recorded post past its resource's initial prefix
}

func newCorpus(resources int, seed int64) (*corpus, error) {
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(resources, seed))
	if err != nil {
		return nil, err
	}
	c := &corpus{ds: ds, n: ds.N()}
	for i, r := range ds.Resources {
		for k := r.Initial; k < len(r.Seq); k++ {
			c.future = append(c.future, ref{int32(i), int32(k)})
		}
	}
	return c, nil
}

func (c *corpus) post(r ref) incentivetag.Post { return c.ds.Resources[r.res].Seq[r.idx] }

// shape is the corpus census stamped on every result.
type shape struct {
	Resources    int `json:"resources"`
	Tags         int `json:"tags"`
	FuturePosts  int `json:"future_posts"`
	InitialPosts int `json:"initial_posts"`
}

func (c *corpus) shape() shape {
	s := shape{Resources: c.n, Tags: c.ds.Vocab.Size(), FuturePosts: len(c.future)}
	for _, r := range c.ds.Resources {
		s.InitialPosts += r.Initial
	}
	return s
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7919 + 1 }

// popularity is a seeded Zipf(s=1.1) ranking of resources: rank 0 is
// the most requested. The permutation decouples popularity from
// resource id; it is shared by every client of a run.
type popularity struct {
	perm []int
}

func newPopularity(n int, seed int64) *popularity {
	return &popularity{perm: rand.New(rand.NewSource(subSeed(seed, 1))).Perm(n)}
}

// picker draws Zipf-distributed resources from one client's stream.
type picker struct {
	pop  *popularity
	zipf *rand.Zipf
}

func (p *popularity) picker(rng *rand.Rand) *picker {
	return &picker{pop: p, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(p.perm)-1))}
}

func (p *picker) next() int { return p.pop.perm[p.zipf.Uint64()] }

// query is one explore request: a /topk on a subject or a /search with
// the tag set of one recorded post.
type query struct {
	topk    bool
	subject int
	post    ref
}

// queryGen alternates /topk on a Zipf subject with /search on one
// recorded post of a Zipf-chosen resource.
type queryGen struct {
	c    *corpus
	rng  *rand.Rand
	pick *picker
	i    int
}

func newQueryGen(c *corpus, pop *popularity, seed int64, client int) *queryGen {
	rng := rand.New(rand.NewSource(subSeed(seed, 100+client)))
	return &queryGen{c: c, rng: rng, pick: pop.picker(rng)}
}

func (g *queryGen) next() query {
	g.i++
	if g.i%2 == 1 {
		return query{topk: true, subject: g.pick.next()}
	}
	r := g.pick.next()
	return query{post: ref{int32(r), int32(g.rng.Intn(len(g.c.ds.Resources[r].Seq)))}}
}

// ingestStream is a seeded shuffle of every recorded future post, cut
// into fixed-size batches and wrapping at the end.
type ingestStream struct {
	order []ref
	pos   int
}

func newIngestStream(c *corpus, seed int64) *ingestStream {
	order := append([]ref(nil), c.future...)
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &ingestStream{order: order}
}

func (s *ingestStream) next(size int) []ref {
	out := make([]ref, size)
	for i := range out {
		out[i] = s.order[s.pos]
		s.pos = (s.pos + 1) % len(s.order)
	}
	return out
}

// cursors hand out each resource's next recorded post, wrapping back
// to the post after the initial prefix when the record runs out — the
// paper's replay semantics for an incentivized post task.
type cursors struct {
	c   *corpus
	pos []int32
}

func newCursors(c *corpus) *cursors {
	cur := &cursors{c: c, pos: make([]int32, c.n)}
	for i, r := range c.ds.Resources {
		cur.pos[i] = int32(r.Initial)
	}
	return cur
}

func (cu *cursors) next(res int) ref {
	r := ref{int32(res), cu.pos[res]}
	cu.pos[res]++
	if int(cu.pos[res]) >= len(cu.c.ds.Resources[res].Seq) {
		cu.pos[res] = int32(cu.c.ds.Resources[res].Initial)
	}
	return r
}

// organic is the crowd prebuild stream: uniformly chosen resources,
// each receiving its next recorded post.
func organic(c *corpus, cu *cursors, seed int64, count int) []ref {
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	out := make([]ref, count)
	for i := range out {
		out[i] = cu.next(rng.Intn(c.n))
	}
	return out
}

// Wire encoders: hand-rolled so the client spends as little CPU as
// possible beside the server on a small box.

func appendTags(b []byte, p incentivetag.Post) []byte {
	b = append(b, '[')
	for i, t := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return append(b, ']')
}

func (c *corpus) ingestBody(b []byte, batch []ref) []byte {
	b = append(b[:0], `{"events":[`...)
	for i, r := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"resource":`...)
		b = strconv.AppendInt(b, int64(r.res), 10)
		b = append(b, `,"tags":`...)
		b = appendTags(b, c.post(r))
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func (c *corpus) completeBody(b []byte, lease uint64, r ref) []byte {
	b = append(b[:0], `{"lease":`...)
	b = strconv.AppendUint(b, lease, 10)
	b = append(b, `,"tags":`...)
	b = appendTags(b, c.post(r))
	return append(b, '}')
}

func (c *corpus) queryURL(b []byte, base string, q query) []byte {
	b = append(b[:0], base...)
	if q.topk {
		b = append(b, "/topk?resource="...)
		b = strconv.AppendInt(b, int64(q.subject), 10)
	} else {
		b = append(b, "/search?tags="...)
		for i, t := range c.post(q.post) {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
	}
	return append(b, "&k=10"...)
}
