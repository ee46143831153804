package main

import (
	"fmt"
	"sort"
	"strings"

	"incentivetag/internal/engine"
)

// The per-layer ledger. For each route (user operation class) the
// traced pass's spans charge every operation's wall time to layers
// along its critical path; the operations whose latency lies in the
// 40th–60th percentile band are averaged, so the layers add up to the
// band's mean, which sits at the route's p50. Node handler time is then
// split with the layer replay into the facade's sublayers, and the
// node's own share (routing, decode, admission, encode).

// layers of a route's p50, in report order.
var layers = []string{"transport", "cluster", "server", "service", "alloc", "engine", "ir", "tagstore", "unattributed"}

// stat is a p50/p99 pair with its sample count; P99 holds the highest
// percentile the sample supports, named by Q.
type stat struct {
	P50 float64 `json:"p50"`
	Q   float64 `json:"tail_q"`
	P99 float64 `json:"tail"`
	N   int     `json:"n"`
}

func statOf(xs []float64) stat {
	s := sortedCopy(xs)
	st := stat{N: len(s)}
	st.P50, _ = percentile(s, 0.5)
	st.Q, st.P99, _ = tail(s)
	return st
}

// routeLedger decomposes one route's p50.
type routeLedger struct {
	ClientP50 float64            `json:"client_p50_us"`
	BandMean  float64            `json:"band_mean_us"`
	Ops       int                `json:"ops"`
	Layers    map[string]float64 `json:"layers_us"`
	Top       string             `json:"largest_layer"`
}

type ledger struct {
	Routes  map[string]*routeLedger `json:"routes"`
	Named   map[string]float64      `json:"named"`
	Spans   map[string]stat         `json:"spans_us"`
	Replay  map[string]stat         `json:"replay_us"`
	Metrics map[string]metric       `json:"metrics"`
}

// spanStats groups durations (µs) by a key derived from each span.
type spanStats map[string][]float64

func (s spanStats) add(k string, ns int64) { s[k] = append(s[k], float64(ns)/1e3) }

func buildLedger(p *prep, o options, base, traced *passResult, spans []span) (*ledger, error) {
	rep, err := replay(p, o.workload, traced.specs, traced.ops)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	L := &ledger{Routes: map[string]*routeLedger{}, Named: map[string]float64{}, Spans: map[string]stat{}, Replay: map[string]stat{}, Metrics: map[string]metric{}}
	for k, v := range rep.us {
		L.Replay[k] = statOf(v)
	}
	med := func(name string) float64 { return L.Replay[name].P50 }

	byReq := map[uint64][]span{}
	for _, s := range spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	ss := spanStats{}
	type opAttr struct {
		dur   int64
		parts map[string]int64
	}
	perRoute := map[string][]opAttr{}
	var legsPerQuery []float64
	for _, group := range byReq {
		t := newTree(group)
		byID := map[uint64]span{}
		for _, s := range group {
			byID[s.ID] = s
		}
		for _, s := range group {
			kids := t.kids[s.ID]
			switch {
			case s.Parent == 0 && strings.HasPrefix(s.Name, "op:"):
				parts := map[string]int64{}
				t.attribute(s, parts)
				route := strings.TrimPrefix(s.Name, "op:")
				perRoute[route] = append(perRoute[route], opAttr{s.dur(), parts})
				ss.add("client."+route, s.dur())
			case strings.HasPrefix(s.Name, "client:"):
				for _, h := range kids {
					ss.add("transport"+strings.TrimPrefix(s.Name, "client:"), s.dur()-h.dur())
					ss.add("handler", h.dur())
				}
			case strings.HasPrefix(s.Name, "gateway:"):
				ss.add("cluster.gateway_self"+strings.TrimPrefix(s.Name, "gateway:"), selfTime(s, kids))
				scatter := 0
				var slowest int64
				for _, l := range kids {
					if l.Name == "leg:/cluster/rfd" {
						ss.add("cluster.owner_fetch", l.dur())
						continue
					}
					scatter++
					ss.add("cluster.leg"+strings.TrimPrefix(l.Name, "leg:"), l.dur())
					slowest = max(slowest, l.dur())
				}
				if scatter > 0 {
					ss.add("cluster.slowest_leg"+strings.TrimPrefix(s.Name, "gateway:"), slowest)
				}
				if s.Name != "gateway:/ingest" {
					legsPerQuery = append(legsPerQuery, float64(len(kids)))
				}
			case strings.HasPrefix(s.Name, "node:"):
				route := strings.TrimPrefix(s.Name, "node:")
				ss.add("node"+route, s.dur())
				if par, ok := byID[s.Parent]; ok && strings.HasPrefix(par.Name, "leg:") {
					ss.add("transport.leg"+route, par.dur()-s.dur())
				}
			}
		}
	}
	for k, v := range ss {
		L.Spans[k] = statOf(v)
	}

	// Facade time and its sublayers per route, from the replay.
	facade := map[string]float64{}
	sub := map[string]map[string]float64{}
	diff := func(a, b string) float64 { return max(med(a)-med(b), 0) }
	switch o.workload {
	case "crowd":
		facade["task"] = med("service.Lease") + med("service.Fulfill")
		sub["task"] = map[string]float64{
			"alloc":    med("alloc.Lease") + diff("alloc.Fulfill", "engine.plain"),
			"engine":   med("engine.plain"),
			"ir":       diff("engine.sub", "engine.plain"),
			"tagstore": diff("engine.wal", "engine.plain"),
		}
	case "cluster":
		facade["ingest"] = med("service.IngestMany")
		sub["ingest"] = map[string]float64{"engine": med("engine.plain"), "ir": diff("engine.sub", "engine.plain")}
		facade["topk"] = med("service.RFD") + med("service.TopKWeighted")
		sub["topk"] = map[string]float64{"ir": med("ir.RFDEntries") + med("ir.TopKWeighted")}
		facade["search"] = med("service.SearchOwned")
		sub["search"] = map[string]float64{"ir": med("ir.SearchOwned")}
	default:
		facade["ingest"] = med("service.IngestMany")
		sub["ingest"] = map[string]float64{
			"engine":   med("engine.plain") + rep.rehydPerOp*rep.rehydP50us,
			"ir":       diff("engine.sub", "engine.plain"),
			"tagstore": diff("engine.wal", "engine.plain"),
		}
		facade["topk"] = med("service.TopK")
		sub["topk"] = map[string]float64{"ir": med("ir.TopK") * (1 - rep.cacheHitFrac)}
		facade["search"] = med("service.Search")
		sub["search"] = map[string]float64{"ir": med("ir.Search")}
	}

	for route, ops := range perRoute {
		sort.Slice(ops, func(a, b int) bool { return ops[a].dur < ops[b].dur })
		lo, hi := rank(0.4, len(ops))-1, rank(0.6, len(ops))
		band := ops[lo:hi]
		sum := map[string]float64{}
		bandMean := 0.0
		for _, a := range band {
			bandMean += float64(a.dur) / 1e3
			for l, ns := range a.parts {
				sum[l] += float64(ns) / 1e3
			}
		}
		n := float64(len(band))
		bandMean /= n
		rl := &routeLedger{BandMean: bandMean, Ops: len(ops), Layers: map[string]float64{}}
		rl.ClientP50 = float64(ops[rank(0.5, len(ops))-1].dur) / 1e3
		for l, us := range sum {
			if l != "node" {
				rl.Layers[l] += us / n
			}
		}
		splitNode(rl.Layers, sum["node"]/n, facade[route], sub[route])
		best := 0.0
		for _, l := range layers {
			if l != "unattributed" && rl.Layers[l] > best {
				best, rl.Top = rl.Layers[l], l
			}
		}
		L.Routes[route] = rl
		logf("ledger %s: p50 %.1fµs, band mean %.1fµs, largest layer %s: %s", route, rl.ClientP50, bandMean, rl.Top, fmtLayers(rl.Layers))
	}

	named(L, rep, traced, commitsPerPost(o.workload, traced.ops))

	m := L.Metrics
	for _, route := range kindNames {
		rl := L.Routes[route]
		for _, l := range layers {
			v := 0.0
			if rl != nil && rl.BandMean > 0 {
				v = rl.Layers[l] / rl.BandMean
			}
			m["ledger."+route+"."+l] = metric{v, "share"}
		}
	}
	var all, transport, handler, facadeCalls []float64
	for k, v := range ss {
		switch {
		case strings.HasPrefix(k, "client."):
			all = append(all, v...)
		case strings.HasPrefix(k, "transport/"):
			transport = append(transport, v...)
		case k == "handler":
			handler = append(handler, v...)
		}
	}
	for k, v := range rep.us {
		if strings.HasPrefix(k, "service.") {
			facadeCalls = append(facadeCalls, v...)
		}
	}
	allS := statOf(all)
	m["client.p50_us"] = metric{allS.P50, "us"}
	m["client.p99_us"] = metric{allS.P99, "us"}
	m["transport.p50_us"] = metric{median(transport), "us"}
	m["server.handler_p50_us"] = metric{median(handler), "us"}
	m["service.p50_us"] = metric{median(facadeCalls), "us"}
	m["engine.boot_s"] = metric{rep.bootS, "s"}
	m["ir.seed_s"] = metric{rep.seedS, "s"}
	d := traced.delta
	m["runtime.gc_pause_us"] = metric{float64(d.gcPauseNs) / 1e3, "us"}
	bOps, tOps := base.e2e()["ops_per_s"].Value, traced.e2e()["ops_per_s"].Value
	m["trace.overhead_frac"] = metric{(bOps - tOps) / bOps, "ratio"}
	m["cache.hit_ratio"] = metric{ratio(d.cacheHits, d.cacheHits+d.cacheMisses), "ratio"}
	var allocOK, allocTried, posts, reqs, reqBytes, opsDone int64
	for _, c := range traced.clients {
		allocOK += c.leaseOK
		allocTried += c.leaseTry
		posts += c.posts
		reqs += c.reqs
		for _, b := range c.reqBytes {
			reqBytes += b
		}
		opsDone += int64(len(c.timed))
	}
	m["alloc.lease_ok_ratio"] = metric{ratio(uint64(allocOK), uint64(allocTried)), "ratio"}
	m["engine.rehydrations_per_kpost"] = metric{1000 * ratio(d.rehydrations, uint64(posts)), "count"}
	m["tagstore.commits_per_post"] = metric{commitsPerPost(o.workload, traced.ops), "count"}
	m["tagstore.bytes_per_post"] = metric{ratio(uint64(rep.walBytes), uint64(rep.twinPosts)), "bytes"}
	if o.workload == "explore" || o.workload == "cluster" {
		m["tagstore.bytes_per_post"] = metric{0, "bytes"}
	}
	m["tagstore.snapshots"] = metric{float64(d.snapshots), "count"}
	m["tagstore.recovery_bytes_read"] = metric{float64(traced.replayByte), "bytes"}
	m["ir.candidates_per_query"] = metric{ratio(d.candidates, d.indexQueries), "count"}
	m["ir.blocks_skipped_per_query"] = metric{ratio(d.blocksSkipped, d.indexQueries), "count"}
	m["cluster.legs_per_query"] = metric{mean(legsPerQuery), "count"}
	m["server.req_bytes"] = metric{ratio(uint64(reqBytes), uint64(reqs)), "bytes"}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(d.allocBytes, uint64(opsDone)), "bytes"}
	return L, nil
}

// named fills the ledger's figures under the layer table's names, for
// the layers the workload exercises.
func named(L *ledger, rep *replayResult, traced *passResult, commitsPerPost float64) {
	n := L.Named
	fromReplay := func(name, call string, scale float64) {
		if st, ok := L.Replay[call]; ok && st.N > 0 {
			n[name] = st.P50 * scale
		}
	}
	fromSpans := func(name, class string) {
		if st, ok := L.Spans[class]; ok && st.N > 0 {
			n[name] = st.P50
		}
	}
	fromReplay("alloc.lease_us", "alloc.Lease", 1)
	if plain, ok := L.Replay["engine.plain"]; ok && rep.twinOps > 0 {
		perOp := float64(rep.twinPosts) / float64(rep.twinOps)
		n["engine.apply_us_per_post"] = plain.P50 / perOp
		n["ir.update_us_per_post"] = max(L.Replay["engine.sub"].P50-plain.P50, 0) / perOp
		if commitsPerPost > 0 {
			n["tagstore.commit_us"] = max(L.Replay["engine.wal"].P50-plain.P50, 0) / (perOp * commitsPerPost)
		}
	}
	fromReplay("ir.topk_us", "ir.TopK", 1)
	fromReplay("ir.topk_us", "ir.TopKWeighted", 1)
	fromReplay("ir.search_us", "ir.Search", 1)
	fromReplay("ir.search_us", "ir.SearchOwned", 1)
	fromReplay("tagstore.snapshot_ms", "service.SnapshotNow", 1e-3)
	if rep.loadS > 0 {
		n["tagstore.load_s"] = rep.loadS
		n["engine.restore_s"] = rep.restoreS
	}
	n["engine.boot_s"] = rep.bootS
	n["ir.seed_s"] = rep.seedS
	if traced.rehydP99us > 0 {
		n["engine.rehydrate_p99_us"] = traced.rehydP99us
	}
	fromSpans("cluster.owner_fetch_us", "cluster.owner_fetch")
	fromSpans("cluster.leg_us", "cluster.leg/cluster/topk")
	fromSpans("cluster.slowest_leg_us", "cluster.slowest_leg/topk")
	fromSpans("cluster.gateway_self_us", "cluster.gateway_self/topk")
	for k, st := range L.Spans {
		if strings.HasPrefix(k, "transport/") {
			n["transport.us."+strings.TrimPrefix(k, "transport")] = st.P50
		}
	}
	for route, rl := range L.Routes {
		n["server.self_us."+route] = rl.Layers["server"]
	}
	for k, st := range L.Replay {
		if strings.HasPrefix(k, "service.") {
			n["service.us."+strings.TrimPrefix(k, "service.")] = st.P50
		}
	}
	for k := kind(0); k < nKinds; k++ {
		var bytes, ops int64
		for _, c := range traced.clients {
			bytes += c.reqBytes[k]
			ops += int64(c.count(k))
		}
		if ops > 0 {
			n["server.req_bytes."+kindNames[k]] = float64(bytes) / float64(ops)
		}
	}
}

// splitNode charges a route's node-handler time: the replayed facade
// time goes to its sublayers (the facade's own remainder to service),
// the rest of the handler to server. When the replayed parts exceed the
// handler time they are scaled down to fit.
func splitNode(out map[string]float64, node, facade float64, parts map[string]float64) {
	if node <= 0 {
		return
	}
	subSum := 0.0
	for _, v := range parts {
		subSum += v
	}
	facade = max(facade, subSum)
	scale := 1.0
	if facade > node {
		scale = node / facade
	}
	for l, v := range parts {
		out[l] += v * scale
	}
	out["service"] += (facade - subSum) * scale
	out["server"] += node - facade*scale
}

// commitsPerPost counts WAL group commits per post: the engine commits
// once per touched shard of an IngestMany batch and once per single
// completion; in-memory workloads commit nothing.
func commitsPerPost(workload string, ops opLog) float64 {
	switch workload {
	case "crowd":
		if len(ops.tasks) > 0 {
			return 1
		}
	case "mixed":
		commits, posts := 0, 0
		for _, b := range ops.batches {
			seen := map[int32]bool{}
			for _, r := range b {
				seen[r.res%engine.DefaultShards] = true
			}
			commits += len(seen)
			posts += len(b)
		}
		return ratio(uint64(commits), uint64(posts))
	}
	return 0
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtLayers(m map[string]float64) string {
	var b strings.Builder
	for _, l := range layers {
		if v, ok := m[l]; ok {
			fmt.Fprintf(&b, "%s=%.1f ", l, v)
		}
	}
	return b.String()
}
