package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"incentivetag"
	"incentivetag/internal/server"
	"incentivetag/internal/tagstore"
)

// The corpus and the popularity ranking are fixed; --seed drives every
// request stream. Runs under different seeds are then samples of one
// workload rather than different workloads: a seeded corpus moves the
// query executor's cost by ~15% from seed to seed through which
// resources head the Zipf ranking, more than the bounds allow.
const corpusSeed = 1

const (
	corpusResources = 2000   // DefaultConfig(2000, corpusSeed): 2005 resources, the Figure-6 scale
	batchEvents     = 64     // events per /ingest request
	crowdSnapEvery  = 20000  // crowd's record-count snapshot policy
	crowdKeepSnaps  = 64     // retain every window snapshot, so the log keeps the window's commit order
	mixedSnapEvery  = 100000 // mixed's record-count snapshot policy: bounds the log's in-memory index
	prebuildBatches = 320    // posts in the pre-built snapshot: 320×64
	prebuildTail    = 4096   // log records past the pre-built snapshot
	sampleAnswers   = 48     // final-epoch /topk and /search answers checked each
	exploreSearches = 1500   // distinct explore /search answers checked against the oracle
	warmup          = time.Second
)

// workloadInfo names the workloads and why each exists.
var workloadInfo = map[string]string{
	"crowd":   "the paper's incentive loop: FP-MU /allocate then /complete with the next recorded post, WAL commit per post, boot from snapshot plus log tail",
	"explore": "read-only Zipf /topk and /search on an in-memory node: every subject fits the epoch-keyed result cache and nothing expires it",
	"mixed":   "64-event /ingest beside the explore query mix on a tiered WAL node: every ingest expires the cache, the working set exceeds the resident tier",
	"cluster": "the mixed load sent to a gateway over three nodes: owner /cluster/rfd fetch, 3-way scatter and merge on every query",
}

// prep holds the inputs shared by every pass of one run: the corpus,
// the seeded streams and the pre-built WAL directory.
type prep struct {
	c    *corpus
	seed int64
	work string
	pop  *popularity

	preBatches [][]ref // posts in the pre-built snapshot, in ingest batches
	preTail    []ref   // log tail past the snapshot, in log order
	preDir     string
	cur        *cursors      // crowd: per-resource cursors after the prebuild
	stream     *ingestStream // mixed, cluster: stream position after the prebuild
}

func (p *prep) prePosts() int { return len(p.preBatches)*batchEvents + len(p.preTail) }

func events(c *corpus, refs []ref) []incentivetag.PostEvent {
	out := make([]incentivetag.PostEvent, len(refs))
	for i, r := range refs {
		out[i] = incentivetag.PostEvent{Resource: int(r.res), Post: c.post(r)}
	}
	return out
}

// replayPre feeds the pre-built history into svc in the order the
// pre-built directory applied it.
func (p *prep) replayPre(svc *incentivetag.Service) error {
	for _, b := range p.preBatches {
		if err := svc.IngestMany(events(p.c, b)); err != nil {
			return err
		}
	}
	for _, r := range p.preTail {
		if err := svc.Ingest(int(r.res), p.c.post(r)); err != nil {
			return err
		}
	}
	return nil
}

// buildWAL writes the pre-built directory: a snapshot covering the
// batches plus a log tail appended behind it.
func (p *prep) buildWAL() error {
	dir, err := os.MkdirTemp(p.work, "prebuilt-")
	if err != nil {
		return err
	}
	svc, err := incentivetag.NewService(p.c.ds, incentivetag.ServiceOptions{WALDir: dir, SnapshotInterval: -1})
	if err != nil {
		return err
	}
	for _, b := range p.preBatches {
		if err := svc.IngestMany(events(p.c, b)); err != nil {
			svc.Close()
			return err
		}
	}
	if err := svc.Close(); err != nil {
		return err
	}
	st, err := tagstore.Open(dir, tagstore.Options{})
	if err != nil {
		return err
	}
	for _, r := range p.preTail {
		if err := st.Append(uint32(r.res), p.c.post(r)); err != nil {
			st.Close()
			return err
		}
	}
	p.preDir = dir
	return st.Close()
}

func newPrep(c *corpus, name string, seed int64, work string) (*prep, error) {
	p := &prep{c: c, seed: seed, work: work, pop: newPopularity(c.n, corpusSeed)}
	switch name {
	case "crowd":
		p.cur = newCursors(c)
		all := organic(c, p.cur, seed, prebuildBatches*batchEvents+prebuildTail)
		for i := 0; i < prebuildBatches; i++ {
			p.preBatches = append(p.preBatches, all[i*batchEvents:(i+1)*batchEvents])
		}
		p.preTail = all[prebuildBatches*batchEvents:]
	case "mixed", "cluster":
		p.stream = newIngestStream(c, seed)
		if name == "mixed" {
			for i := 0; i < prebuildBatches; i++ {
				p.preBatches = append(p.preBatches, p.stream.next(batchEvents))
			}
			p.preTail = p.stream.next(prebuildTail)
		}
	}
	if p.preBatches != nil {
		if err := p.buildWAL(); err != nil {
			return nil, fmt.Errorf("pre-building WAL: %w", err)
		}
	}
	return p, nil
}

// pass is one pass of a workload over a freshly booted stack.
type pass interface {
	specs() []nodeSpec
	loops(st *stack, w window) []func(c *client)
	// check runs the correctness gate; it may stop and close the stack.
	// It returns the number of checks made and the failures among them.
	check(st *stack) (checks, failed int, err error)
	// ops is the operation log the layer replay replays.
	ops() opLog
}

// opLog is what a pass acknowledged, in a replayable order.
type opLog struct {
	tasks   []incentivetag.PostEvent // crowd completions in commit order
	batches [][]ref                  // ingest batches in the writer's order
	queries []query                  // queries in one client's order
}

func newPass(p *prep, name string) pass {
	switch name {
	case "crowd":
		cu := &cursors{c: p.c, pos: append([]int32(nil), p.cur.pos...)}
		return &crowd{p: p, cur: cu, acks: make([][]ack, 2)}
	case "explore":
		return &explore{p: p, seen: make([]map[string]answer, 2)}
	case "mixed", "cluster":
		s := *p.stream
		return &mixed{p: p, cluster: name == "cluster", stream: &s}
	}
	return nil
}

// ---- crowd -------------------------------------------------------------

type ack struct {
	seq int64
	r   ref
}

type crowd struct {
	p    *prep
	mu   sync.Mutex
	cur  *cursors
	next int64
	acks [][]ack                  // per client, in completion order
	wal  []incentivetag.PostEvent // the window's log records in commit order, read back by check
}

func (s *crowd) specs() []nodeSpec {
	return []nodeSpec{{walSrc: s.p.preDir, opts: incentivetag.ServiceOptions{
		SnapshotEvery: crowdSnapEvery,
		KeepSnapshots: crowdKeepSnaps,
	}}}
}

func (s *crowd) loops(st *stack, w window) []func(c *client) {
	out := make([]func(c *client), 2)
	for i := range out {
		i := i
		out[i] = func(c *client) {
			for time.Now().Before(w.stop) {
				o := c.begin(kTask, w)
				err := s.cycle(c, o, st.url, i)
				c.end(o, err)
			}
		}
	}
	return out
}

func (s *crowd) cycle(c *client, o op, url string, i int) error {
	if err := c.do(o, http.MethodPost, url+"/allocate", []byte("{}")); err != nil {
		return err
	}
	var ar server.AllocateResponse
	if err := json.Unmarshal(c.resp.Bytes(), &ar); err != nil {
		return fmt.Errorf("allocate: %v", err)
	}
	if o.measured {
		c.leaseTry++
		if ar.OK {
			c.leaseOK++
		}
	}
	if !ar.OK {
		return fmt.Errorf("allocate answered ok:false under an unlimited budget")
	}
	s.mu.Lock()
	r := s.cur.next(ar.Resource)
	seq := s.next
	s.next++
	s.mu.Unlock()
	c.buf = s.p.c.completeBody(c.buf, ar.Lease, r)
	if err := c.do(o, http.MethodPost, url+"/complete", c.buf); err != nil {
		return err
	}
	s.acks[i] = append(s.acks[i], ack{seq, r})
	if o.measured {
		c.posts++
	}
	return nil
}

// acked merges the clients' acknowledgements into cursor order, which
// per resource is the order the server applied them (a resource is
// leased to one worker at a time).
func (s *crowd) acked() []ack {
	var all []ack
	for _, a := range s.acks {
		all = append(all, a...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

func (s *crowd) ops() opLog { return opLog{tasks: s.wal} }

// check: the window's log must hold exactly the acknowledged posts in
// per-resource acknowledgement order; /metrics must be bit-identical
// to an oracle fed the pre-built history plus the log in commit order;
// and a reopened WAL directory must recover every acknowledged post.
func (s *crowd) check(st *stack) (int, int, error) {
	nd := st.nodes[0]
	var got server.MetricsResponse
	if err := getJSON(st.url+"/metrics", &got); err != nil {
		return 1, 1, err
	}
	if err := st.close(); err != nil {
		return 1, 1, fmt.Errorf("closing service: %w", err)
	}
	acked := s.acked()
	g := gate{}
	wal, err := readLog(nd.spec.opts.WALDir, uint64(s.p.prePosts()))
	if err != nil {
		return 1, 1, err
	}
	s.wal = wal
	g.expect(len(wal) == len(acked), "log holds %d window records, %d posts were acknowledged", len(wal), len(acked))
	g.expect(samePerResource(s.p.c, wal, acked), "log's per-resource post order differs from the acknowledged order")
	oracle, err := incentivetag.NewService(s.p.c.ds, incentivetag.ServiceOptions{})
	if err != nil {
		return 1, 1, err
	}
	defer oracle.Close()
	if err := s.p.replayPre(oracle); err != nil {
		return 1, 1, err
	}
	for _, ev := range wal {
		if err := oracle.Ingest(ev.Resource, ev.Post); err != nil {
			return 1, 1, err
		}
	}
	want := oracle.Snapshot()
	g.err(sameMetrics(got, want), "/metrics vs oracle")
	g.err(recovers(s.p.c, nd.spec.opts, s.p.prePosts()+len(acked), want), "reopened WAL")
	return g.checks, g.failed, g.first
}

// readLog returns the log records past seq from a closed WAL directory,
// in commit order.
func readLog(dir string, after uint64) ([]incentivetag.PostEvent, error) {
	st, err := tagstore.Open(dir, tagstore.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if st.FirstSeq() > after+1 {
		return nil, fmt.Errorf("log starts at seq %d: window records before it were compacted away", st.FirstSeq())
	}
	var out []incentivetag.PostEvent
	_, err = st.ScanFrom(after+1, func(_ uint64, rid uint32, p incentivetag.Post) error {
		out = append(out, incentivetag.PostEvent{Resource: int(rid), Post: p})
		return nil
	})
	return out, err
}

func samePost(a, b incentivetag.Post) bool {
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

// samePerResource reports whether the log and the acknowledgements
// hold the same posts per resource in the same order.
func samePerResource(c *corpus, wal []incentivetag.PostEvent, acked []ack) bool {
	per := map[int][]incentivetag.Post{}
	for _, ev := range wal {
		per[ev.Resource] = append(per[ev.Resource], ev.Post)
	}
	pos := map[int]int{}
	for _, a := range acked {
		res := int(a.r.res)
		k := pos[res]
		if k >= len(per[res]) || !samePost(per[res][k], c.post(a.r)) {
			return false
		}
		pos[res] = k + 1
	}
	for res, l := range per {
		if pos[res] != len(l) {
			return false
		}
	}
	return true
}

// recovers reopens a closed WAL directory with the options it ran
// under and requires the recovered state to hold every acknowledged
// post, bit-identical to the oracle.
func recovers(c *corpus, opts incentivetag.ServiceOptions, posts int, want incentivetag.Metrics) error {
	opts.SnapshotInterval = -1
	opts.TierInterval = -1
	svc, err := incentivetag.NewService(c.ds, opts)
	if err != nil {
		return err
	}
	defer svc.Close()
	if got := svc.RecoveryStats().RecoveredPosts; got != posts {
		return fmt.Errorf("recovered %d posts, %d were acknowledged", got, posts)
	}
	m := svc.Snapshot()
	return sameMetrics(server.MetricsResponse{
		Posts: m.Posts, MeanQuality: m.MeanQuality, OverTagged: m.OverTagged,
		UnderTagged: m.UnderTagged, WastedPosts: m.WastedPosts,
	}, want)
}

// ---- explore -----------------------------------------------------------

// answer is the first body seen for one query plus its hash; every
// later answer to the same query must hash the same, since nothing
// writes.
type answer struct {
	q    query
	hash uint64
	body []byte
}

type explore struct {
	p     *prep
	seen  []map[string]answer // per client: query URL → first answer
	diffs []int               // per client: answers that differed from the first
	log   []query
}

func (s *explore) specs() []nodeSpec { return []nodeSpec{{}} }

func (s *explore) loops(st *stack, w window) []func(c *client) {
	s.diffs = make([]int, 2)
	out := make([]func(c *client), 2)
	for i := range out {
		i := i
		s.seen[i] = map[string]answer{}
		gen := newQueryGen(s.p.c, s.p.pop, s.p.seed, i)
		out[i] = func(c *client) {
			h := fnv.New64a()
			for time.Now().Before(w.stop) {
				q := gen.next()
				o := c.begin(queryKind(q), w)
				c.buf = s.p.c.queryURL(c.buf, st.url, q)
				err := c.do(o, http.MethodGet, string(c.buf), nil)
				if err == nil {
					h.Reset()
					h.Write(c.resp.Bytes())
					sum := h.Sum64()
					if a, ok := s.seen[i][string(c.buf)]; !ok {
						s.seen[i][string(c.buf)] = answer{q: q, hash: sum, body: append([]byte(nil), c.resp.Bytes()...)}
					} else if a.hash != sum {
						s.diffs[i]++
						err = fmt.Errorf("answer to %s changed without a write", c.buf)
					}
				}
				if i == 0 && o.measured {
					s.log = append(s.log, q)
				}
				c.end(o, err)
			}
		}
	}
	return out
}

func queryKind(q query) kind {
	if q.topk {
		return kTopK
	}
	return kSearch
}

func (s *explore) ops() opLog { return opLog{queries: s.log} }

// check: answers to one query never changed, and every distinct /topk
// answer plus a sample of distinct /search answers match the exhaustive
// oracle over an independently built service.
func (s *explore) check(st *stack) (int, int, error) {
	var got server.MetricsResponse
	if err := getJSON(st.url+"/metrics", &got); err != nil {
		return 1, 1, err
	}
	if err := st.close(); err != nil {
		return 1, 1, err
	}
	g := gate{}
	g.expect(got.Posts == 0, "explore wrote %d posts", got.Posts)
	for i, d := range s.diffs {
		g.expect(d == 0, "client %d saw %d answers change without a write", i, d)
	}
	o, err := newOracle(s.p.c, nil)
	if err != nil {
		return 1, 1, err
	}
	defer o.svc.Close()
	merged := map[string]answer{}
	for _, m := range s.seen {
		for k, a := range m {
			if b, ok := merged[k]; ok {
				g.expect(a.hash == b.hash, "clients disagree on %s", k)
				continue
			}
			merged[k] = a
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	searches := 0
	for _, k := range keys {
		a := merged[k]
		if !a.q.topk {
			if searches >= exploreSearches {
				continue
			}
			searches++
		}
		g.err(o.checkBody(s.p.c, a.q, a.body), k)
	}
	return g.checks, g.failed, g.first
}

// ---- mixed and cluster -------------------------------------------------

type mixed struct {
	p       *prep
	cluster bool
	stream  *ingestStream
	acked   [][]ref // ingest batches acknowledged, in order
	log     []query
}

func (s *mixed) specs() []nodeSpec {
	if s.cluster {
		return make([]nodeSpec, 3)
	}
	return []nodeSpec{{walSrc: s.p.preDir, opts: incentivetag.ServiceOptions{
		MaxResidentResources: s.p.c.n / 10,
		SnapshotEvery:        mixedSnapEvery,
	}}}
}

func (s *mixed) loops(st *stack, w window) []func(c *client) {
	writer := func(c *client) {
		for time.Now().Before(w.stop) {
			b := s.stream.next(batchEvents)
			o := c.begin(kIngest, w)
			c.buf = s.p.c.ingestBody(c.buf, b)
			err := c.do(o, http.MethodPost, st.url+"/ingest", c.buf)
			if err == nil {
				s.acked = append(s.acked, b)
				if o.measured {
					c.posts += int64(len(b))
				}
			}
			c.end(o, err)
		}
	}
	gen := newQueryGen(s.p.c, s.p.pop, s.p.seed, 1)
	reader := func(c *client) {
		for time.Now().Before(w.stop) {
			q := gen.next()
			o := c.begin(queryKind(q), w)
			c.buf = s.p.c.queryURL(c.buf, st.url, q)
			err := c.do(o, http.MethodGet, string(c.buf), nil)
			if o.measured {
				s.log = append(s.log, q)
			}
			c.end(o, err)
		}
	}
	return []func(c *client){writer, reader}
}

func (s *mixed) ops() opLog { return opLog{batches: s.acked, queries: s.log} }

// check: final-epoch answers through the front door match the
// exhaustive oracle fed the same posts in the writer's order; for the
// single node /metrics is bit-identical to that oracle and the reopened
// WAL recovers every acknowledged post; for the cluster, the gateway's
// partition-clean counters match it.
func (s *mixed) check(st *stack) (int, int, error) {
	g := gate{}
	sample := newQueryGen(s.p.c, s.p.pop, s.p.seed, 7)
	var qs []query
	var bodies [][]byte
	for len(qs) < 2*sampleAnswers {
		q := sample.next()
		var raw json.RawMessage
		if err := getJSON(string(s.p.c.queryURL(nil, st.url, q)), &raw); err != nil {
			return 1, 1, err
		}
		qs, bodies = append(qs, q), append(bodies, raw)
	}
	var got server.MetricsResponse
	if err := getJSON(st.url+"/metrics", &got); err != nil {
		return 1, 1, err
	}
	if err := st.close(); err != nil {
		return 1, 1, err
	}
	o, err := newOracle(s.p.c, func(svc *incentivetag.Service) error {
		if !s.cluster {
			if err := s.p.replayPre(svc); err != nil {
				return err
			}
		}
		for _, b := range s.acked {
			if err := svc.IngestMany(events(s.p.c, b)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 1, 1, err
	}
	defer o.svc.Close()
	for i, q := range qs {
		g.err(o.checkBody(s.p.c, q, bodies[i]), "final-epoch answer")
	}
	want := o.svc.Snapshot()
	if s.cluster {
		g.expect(got.Posts == want.Posts && got.WastedPosts == want.WastedPosts,
			"gateway counts %d posts (%d wasted), oracle %d (%d)", got.Posts, got.WastedPosts, want.Posts, want.WastedPosts)
		return g.checks, g.failed, g.first
	}
	g.err(sameMetrics(got, want), "/metrics vs oracle")
	g.err(recovers(s.p.c, st.nodes[0].spec.opts, s.p.prePosts()+len(s.acked)*batchEvents, want), "reopened WAL")
	return g.checks, g.failed, g.first
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return decodeJSON(resp.Body, v)
}
