package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"incentivetag"
	"incentivetag/internal/alloc"
	"incentivetag/internal/cluster"
	"incentivetag/internal/engine"
	"incentivetag/internal/ir"
	"incentivetag/internal/sim"
	"incentivetag/internal/tagstore"
)

// Layer replay. The traced pass's operation log is replayed, without
// HTTP, against a freshly booted stack of the same configuration, and
// each call into a layer's public function is timed:
//
//   - the Service facade (Lease, Fulfill, IngestMany, TopK, Search, RFD,
//     TopKWeighted, SearchOwned);
//   - alloc.Allocator.Lease and Fulfill on a plain engine twin;
//   - engine.Engine.IngestMany on three twins: plain, with an
//     ir.OnlineIndex subscriber, and with a WAL — the differences are
//     the index-update and log-commit costs;
//   - ir.OnlineIndex.TopK, Search, TopKWeighted and SearchOwned;
//   - tagstore.LatestSnapshot / MapLatestSnapshot and ScanFrom, and
//     engine.NewFromState / NewFromMapped / New on the boot path.

const (
	replayOps   = 3000 // operations of each kind replayed at most
	replayTasks = 4000 // crowd task cycles replayed at most
)

// samples collects replay timings in microseconds by name.
type samples map[string][]float64

func (s samples) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	s[name] = append(s[name], float64(time.Since(t0).Nanoseconds())/1e3)
}

func (s samples) add(name string, us float64) { s[name] = append(s[name], us) }

// replayResult is what the ledger needs from the replay.
type replayResult struct {
	us           samples
	bootS        float64 // engine construction on the boot path
	seedS        float64 // query-index seed
	loadS        float64 // snapshot read (0 without a WAL)
	restoreS     float64 // engine restore from the snapshot (0 without a WAL)
	rehydPerOp   float64 // tiered facade: rehydrations per ingest batch
	rehydP50us   float64
	twinOps      int     // ingest calls made on each twin
	twinPosts    int     // posts they carried
	walBytes     int64   // log bytes the WAL twin wrote during the replay
	cacheHitFrac float64 // facade /topk cache hits over lookups during the replay
}

// twins are engine copies fed the same posts: plain, subscribed by a
// query index, and logging to a WAL.
type twins struct {
	plain, sub, wal *engine.Engine
	idx             *ir.OnlineIndex
	store           *tagstore.Store
	preBytes        int64 // log bytes the pre-built history wrote
}

func engineConfig(data *sim.Data) engine.Config {
	return engine.Config{Omega: 5, UnderThreshold: data.UnderThreshold, TagUniverse: data.TagUniverse}
}

func newTwins(p *prep, work string, r *replayResult) (*twins, error) {
	data := sim.FromDataset(p.c.ds, 0)
	cfg := engineConfig(data)
	var t twins
	var err error
	if t.plain, err = engine.New(cfg, data.EngineSpecs()); err != nil {
		return nil, err
	}
	if t.sub, err = engine.New(cfg, data.EngineSpecs()); err != nil {
		return nil, err
	}
	t0 := time.Now()
	t.idx = ir.NewOnlineIndex(t.sub.SnapshotRFDs(), t.sub.Shards())
	r.seedS = time.Since(t0).Seconds()
	t.sub.Subscribe(t.idx)
	dir, err := os.MkdirTemp(work, "twin-wal-")
	if err != nil {
		return nil, err
	}
	if t.store, err = tagstore.Open(dir, tagstore.Options{}); err != nil {
		return nil, err
	}
	wcfg := cfg
	wcfg.WAL = t.store
	if t.wal, err = engine.New(wcfg, data.EngineSpecs()); err != nil {
		return nil, err
	}
	for _, e := range []*engine.Engine{t.plain, t.sub, t.wal} {
		for _, b := range p.preBatches {
			if err := e.IngestMany(events(p.c, b)); err != nil {
				return nil, err
			}
		}
		if err := e.IngestMany(events(p.c, p.preTail)); err != nil {
			return nil, err
		}
	}
	st, err := t.store.Stat()
	if err != nil {
		return nil, err
	}
	t.preBytes = st.Bytes
	return &t, nil
}

// ingest times one batch on every twin.
func (t *twins) ingest(r *replayResult, evs []engine.PostEvent) error {
	s := r.us
	r.twinOps++
	r.twinPosts += len(evs)
	var errs [3]error
	s.time("engine.plain", func() { errs[0] = t.plain.IngestMany(evs) })
	s.time("engine.sub", func() { errs[1] = t.sub.IngestMany(evs) })
	s.time("engine.wal", func() { errs[2] = t.wal.IngestMany(evs) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *twins) close(r *replayResult) {
	if st, err := t.store.Stat(); err == nil {
		r.walBytes = st.Bytes - t.preBytes
	}
	t.store.Close()
}

// bootPath times the boot path's storage and engine steps on a copy of
// the pre-built WAL directory (crowd decodes the snapshot, mixed maps
// it), or the in-memory engine build.
func bootPath(p *prep, name string, r *replayResult) error {
	data := sim.FromDataset(p.c.ds, 0)
	cfg := engineConfig(data)
	if p.preDir == "" {
		t0 := time.Now()
		_, err := engine.New(cfg, data.EngineSpecs())
		r.bootS = time.Since(t0).Seconds()
		return err
	}
	dir, err := os.MkdirTemp(p.work, "boot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(p.preDir, dir); err != nil {
		return err
	}
	if name == "mixed" {
		t0 := time.Now()
		m, ok, _, err := tagstore.MapLatestSnapshot(dir)
		r.loadS = time.Since(t0).Seconds()
		if err != nil || !ok {
			return fmt.Errorf("mapping pre-built snapshot: ok=%v err=%v", ok, err)
		}
		defer m.Close()
		t0 = time.Now()
		_, _, err = engine.NewFromMapped(cfg, data.EngineSpecs(), m.Payload)
		r.restoreS = time.Since(t0).Seconds()
		r.bootS = r.restoreS
		return err
	}
	t0 := time.Now()
	_, payload, ok, _, err := tagstore.LatestSnapshot(dir)
	r.loadS = time.Since(t0).Seconds()
	if err != nil || !ok {
		return fmt.Errorf("reading pre-built snapshot: ok=%v err=%v", ok, err)
	}
	t0 = time.Now()
	st, err := engine.UnmarshalState(payload)
	if err != nil {
		return err
	}
	_, err = engine.NewFromState(cfg, data.EngineSpecs(), st)
	r.restoreS = time.Since(t0).Seconds()
	r.bootS = r.restoreS
	return err
}

// facadeStack boots the pass's node services without HTTP, from fresh
// copies of the pre-built directory.
func facadeStack(p *prep, specs []nodeSpec) ([]*incentivetag.Service, error) {
	var out []*incentivetag.Service
	for _, sp := range specs {
		opts := sp.opts
		if sp.walSrc != "" {
			dir, err := os.MkdirTemp(p.work, "replay-wal-")
			if err != nil {
				return out, err
			}
			if err := copyDir(sp.walSrc, dir); err != nil {
				return out, err
			}
			opts.WALDir = dir
		}
		svc, err := incentivetag.NewService(p.c.ds, opts)
		if err != nil {
			return out, err
		}
		out = append(out, svc)
	}
	return out, nil
}

func replay(p *prep, name string, specs []nodeSpec, ops opLog) (*replayResult, error) {
	r := &replayResult{us: samples{}}
	if err := bootPath(p, name, r); err != nil {
		return nil, err
	}
	tw, err := newTwins(p, p.work, r)
	if err != nil {
		return nil, err
	}
	defer tw.close(r)
	svcs, err := facadeStack(p, specs)
	defer func() {
		for _, s := range svcs {
			s.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	switch name {
	case "crowd":
		err = replayCrowd(p, svcs[0], tw, ops, r)
	case "cluster":
		err = replayCluster(p, svcs, tw, ops, r)
	default:
		err = replaySingle(p, svcs[0], tw, ops, r, name == "explore")
	}
	if err == nil && specs[0].walSrc != "" {
		// One snapshot and compaction cycle over the replayed records.
		r.us.time("service.SnapshotNow", func() { _, err = svcs[0].SnapshotNow() })
	}
	return r, err
}

func replayCrowd(p *prep, svc *incentivetag.Service, tw *twins, ops opLog, r *replayResult) error {
	data := sim.FromDataset(p.c.ds, 0)
	eng, err := engine.New(engineConfig(data), data.EngineSpecs())
	if err != nil {
		return err
	}
	strat, err := incentivetag.NewStrategy("FP-MU", 5)
	if err != nil {
		return err
	}
	al := alloc.New(strat, engine.NewView(eng, 1), eng)
	cu := &cursors{c: p.c, pos: append([]int32(nil), p.cur.pos...)}
	acu := &cursors{c: p.c, pos: append([]int32(nil), p.cur.pos...)}
	for k, ev := range ops.tasks {
		if k >= replayTasks {
			break
		}
		var res int
		var lease incentivetag.LeaseID
		var ok bool
		r.us.time("service.Lease", func() { res, lease, ok = svc.Lease(math.MaxInt32) })
		if !ok {
			return fmt.Errorf("replayed Lease answered ok=false")
		}
		post := p.c.post(cu.next(res))
		r.us.time("service.Fulfill", func() { err = svc.Fulfill(lease, post) })
		if err != nil {
			return err
		}
		r.us.time("alloc.Lease", func() { res, lease, ok = al.Lease(math.MaxInt32) })
		if !ok {
			return fmt.Errorf("twin Lease answered ok=false")
		}
		post = p.c.post(acu.next(res))
		r.us.time("alloc.Fulfill", func() { err = al.Fulfill(lease, post) })
		if err != nil {
			return err
		}
		if err := tw.ingest(r, []engine.PostEvent{ev}); err != nil {
			return err
		}
	}
	return nil
}

// replaySingle interleaves the writer's batches with the reader's
// queries in the ratio the traced pass served them.
func replaySingle(p *prep, svc *incentivetag.Service, tw *twins, ops opLog, r *replayResult, warm bool) error {
	qs := ops.queries
	if len(qs) > replayOps {
		qs = qs[:replayOps]
	}
	bs := ops.batches
	if len(bs) > replayOps {
		bs = bs[:replayOps]
	}
	if warm {
		// Nothing writes, so the pass's result cache was warm: warm it.
		for _, q := range qs {
			query1(p, svc, q)
		}
	}
	before := svc.QueryStats()
	rehyd := svc.Residency().Rehydrations
	per := 0
	if len(bs) > 0 {
		per = len(ops.queries) / max(len(ops.batches), 1)
	}
	qi := 0
	runQueries := func(n int) error {
		for ; n > 0 && qi < len(qs); n-- {
			q := qs[qi]
			qi++
			if err := timeQuery(p, svc, tw.idx, q, r.us); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range bs {
		evs := events(p.c, b)
		var err error
		r.us.time("service.IngestMany", func() { err = svc.IngestMany(evs) })
		if err != nil {
			return err
		}
		if err := tw.ingest(r, evs); err != nil {
			return err
		}
		if err := runQueries(per); err != nil {
			return err
		}
	}
	if err := runQueries(len(qs)); err != nil {
		return err
	}
	after := svc.QueryStats()
	if lookups := (after.CacheHits + after.CacheMisses) - (before.CacheHits + before.CacheMisses); lookups > 0 {
		r.cacheHitFrac = float64(after.CacheHits-before.CacheHits) / float64(lookups)
	}
	if len(bs) > 0 {
		res := svc.Residency()
		r.rehydPerOp = float64(res.Rehydrations-rehyd) / float64(len(bs))
		r.rehydP50us = res.RehydrateP50 * 1e6
	}
	return nil
}

func query1(p *prep, svc *incentivetag.Service, q query) {
	if q.topk {
		svc.TopK(q.subject, 10)
		return
	}
	svc.Search(p.c.post(q.post), 10)
}

func timeQuery(p *prep, svc *incentivetag.Service, idx *ir.OnlineIndex, q query, s samples) error {
	var err error
	if q.topk {
		s.time("service.TopK", func() { _, _, err = svc.TopK(q.subject, 10) })
		s.time("ir.TopK", func() { idx.TopK(q.subject, 10) })
		return err
	}
	post := p.c.post(q.post)
	s.time("service.Search", func() { _, _, err = svc.Search(post, 10) })
	s.time("ir.Search", func() { idx.Search(post, 10) })
	return err
}

// replayCluster replays the gateway's per-node calls: each batch split
// by owner, and for each query the owner's RFD then every node's
// TopKWeighted (or SearchOwned). Per operation the slowest node counts,
// as it does behind a scatter.
func replayCluster(p *prep, svcs []*incentivetag.Service, tw *twins, ops opLog, r *replayResult) error {
	m := &cluster.Map{VNodes: cluster.DefaultVNodes}
	for i := range svcs {
		m.Nodes = append(m.Nodes, cluster.Node{Name: fmt.Sprintf("node%d", i), URL: "http://127.0.0.1:1"})
	}
	ring := m.Ring()
	owned := make([]func(int) bool, len(svcs))
	idxs := make([]*ir.OnlineIndex, len(svcs))
	for i, svc := range svcs {
		o, err := m.OwnedBy(m.Nodes[i].Name)
		if err != nil {
			return err
		}
		owned[i] = o
		idxs[i] = ir.NewOnlineIndex(svc.SnapshotRFDs(), engine.DefaultShards)
	}
	slowest := func(name string, fn func(i int) error) error {
		worst := 0.0
		for i := range svcs {
			t0 := time.Now()
			err := fn(i)
			if us := float64(time.Since(t0).Nanoseconds()) / 1e3; us > worst {
				worst = us
			}
			if err != nil {
				return err
			}
		}
		r.us.add(name, worst)
		return nil
	}
	qs := ops.queries
	if len(qs) > replayOps {
		qs = qs[:replayOps]
	}
	bs := ops.batches
	if len(bs) > replayOps {
		bs = bs[:replayOps]
	}
	per := len(ops.queries) / max(len(ops.batches), 1)
	qi := 0
	for bi := 0; bi < len(bs) || qi < len(qs); bi++ {
		if bi < len(bs) {
			split := make([][]engine.PostEvent, len(svcs))
			for _, ev := range events(p.c, bs[bi]) {
				o := ring.Owner(ev.Resource)
				split[o] = append(split[o], ev)
			}
			largest := 0
			if err := slowest("service.IngestMany", func(i int) error {
				if len(split[i]) > len(split[largest]) {
					largest = i
				}
				for _, ev := range split[i] {
					idxs[i].Apply(ev.Resource, ev.Post)
				}
				return svcs[i].IngestMany(split[i])
			}); err != nil {
				return err
			}
			if err := tw.ingest(r, split[largest]); err != nil {
				return err
			}
		}
		for n := 0; (n < per || bi >= len(bs)) && qi < len(qs); n++ {
			q := qs[qi]
			qi++
			if q.topk {
				owner := ring.Owner(q.subject)
				var ents []ir.WeightedTag
				var n2 float64
				var err error
				r.us.time("service.RFD", func() { ents, n2, _, err = svcs[owner].RFD(q.subject) })
				if err != nil {
					return err
				}
				r.us.time("ir.RFDEntries", func() { idxs[owner].RFDEntries(q.subject) })
				if err := slowest("service.TopKWeighted", func(i int) error {
					_, _, err := svcs[i].TopKWeighted(ents, n2, q.subject, 10)
					return err
				}); err != nil {
					return err
				}
				slowest("ir.TopKWeighted", func(i int) error {
					idxs[i].TopKWeighted(ents, n2, q.subject, 10, owned[i])
					return nil
				})
				continue
			}
			post := p.c.post(q.post)
			if err := slowest("service.SearchOwned", func(i int) error {
				_, _, err := svcs[i].SearchOwned(post, 10)
				return err
			}); err != nil {
				return err
			}
			slowest("ir.SearchOwned", func(i int) error {
				idxs[i].SearchOwned(post, 10, owned[i])
				return nil
			})
		}
	}
	return nil
}
