// Command perfbench is the repository's end-to-end benchmark. It boots
// the real serving stack in-process (internal/server nodes and, for the
// cluster workload, an internal/cluster gateway, each on a loopback
// listener), drives one of four seeded closed-loop workloads for a
// fixed window, checks every answer against an oracle, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload mixed --seed 3 --seconds 8 --trace 0
//
// With --trace 1 it runs the same workload and seed twice more, once
// untraced and once with spans recorded at every HTTP boundary, replays
// the traced pass's operations against the layers' public functions,
// and prints the per-layer ledger instead of the end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

const (
	clients    = 2 // closed-loop clients per workload
	setupBoots = 5 // boots per run; setup_s is their median
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 1 = report the per-layer ledger
	out      string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what the numbers were measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Clients    int    `json:"clients"`
	ConnCap    int    `json:"conns_per_host"`
	Corpus     shape  `json:"corpus"`
	Postings   int    `json:"postings_at_boot"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "crowd, explore, mixed or cluster")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 8, "measured window per pass")
	flag.IntVar(&o.trace, "trace", 0, "1 = report the per-layer ledger")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for scratch state and reports")
	flag.Parse()
	out, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func execute(o options) (*output, error) {
	if _, ok := workloadInfo[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if n := runtime.NumCPU(); n < clients {
		return nil, fmt.Errorf("%d clients need at least %d CPUs, have %d", clients, clients, n)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	c, err := newCorpus(corpusResources, corpusSeed)
	if err != nil {
		return nil, err
	}
	p, err := newPrep(c, o.workload, o.seed, work)
	if err != nil {
		return nil, err
	}
	base, err := runPass(p, o, nil, setupBoots)
	if err != nil {
		return nil, err
	}
	rep := report{Stamp: stampFor(o, c, base), E2E: base.e2e(), Why: workloadInfo[o.workload]}
	logf("%+v", rep.Stamp)
	logf("%s seed %d: %s", o.workload, o.seed, fmtMetrics(rep.E2E))
	logf("operations per 1-s slice: %v", base.sliceCounts(o.seconds))
	out := &output{
		Correct:   base.gateErr == nil && base.failed() == 0,
		Attempted: base.attempted(),
		Failed:    base.failed(),
		Metrics:   map[string]metric{},
	}
	base.logFailures("untraced")
	if base.gateErr != nil {
		logf("correctness gate: %v", base.gateErr)
	}
	if o.trace != 1 {
		for _, name := range e2eNames {
			m, ok := rep.E2E[name]
			if !ok {
				return nil, fmt.Errorf("too few samples to report %s", name)
			}
			out.Metrics[name] = m
		}
	} else {
		tr := newRecorder()
		traced, err := runPass(p, o, tr, 1)
		if err != nil {
			return nil, err
		}
		traced.logFailures("traced")
		if traced.gateErr != nil {
			logf("correctness gate (traced pass): %v", traced.gateErr)
			out.Correct = false
		}
		out.Attempted += traced.attempted()
		out.Failed += traced.failed()
		rep.Traced = traced.e2e()
		spans := tr.all()
		ledger, err := buildLedger(p, o, base, traced, spans)
		if err != nil {
			return nil, err
		}
		rep.Ledger = ledger
		out.Metrics = ledger.Metrics
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-s%d.tsv", o.workload, o.seed)), spans); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("result-%s-s%d-t%d.json", o.workload, o.seed, o.trace)), rep); err != nil {
		return nil, err
	}
	return out, nil
}

// report is the full result file: the stamp, every end-to-end figure
// (including the per-route ones the contract line omits) and, for a
// traced run, the ledger.
type report struct {
	Stamp  stamp             `json:"stamp"`
	Why    string            `json:"why"`
	E2E    map[string]metric `json:"e2e"`
	Traced map[string]metric `json:"traced_e2e,omitempty"`
	Ledger *ledger           `json:"ledger,omitempty"`
}

func stampFor(o options, c *corpus, ps *passResult) stamp {
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Clients: clients, ConnCap: runtime.NumCPU(), Corpus: c.shape(), Postings: ps.postings,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func fmtMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		s += fmt.Sprintf("%s=%.4g%s ", k, m[k].Value, m[k].Unit)
	}
	return s
}

// counters are the layer census read before and after the window,
// summed over nodes.
type counters struct {
	cacheHits, cacheMisses   uint64
	indexQueries, candidates uint64
	blocksSkipped            uint64
	rehydrations, snapshots  uint64
	gcPauseNs, allocBytes    uint64
}

func readCounters(st *stack) counters {
	var c counters
	for _, nd := range st.nodes {
		q := nd.svc.QueryStats()
		c.cacheHits += q.CacheHits
		c.cacheMisses += q.CacheMisses
		c.indexQueries += q.TopKQueries + q.SearchQueries
		c.candidates += q.CandidatesScored
		c.blocksSkipped += q.BlocksSkipped
		c.rehydrations += nd.svc.Residency().Rehydrations
		c.snapshots += uint64(nd.svc.RecoveryStats().SnapshotsTaken)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNs, c.allocBytes = ms.PauseTotalNs, ms.TotalAlloc
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		indexQueries: a.indexQueries - b.indexQueries, candidates: a.candidates - b.candidates,
		blocksSkipped: a.blocksSkipped - b.blocksSkipped, rehydrations: a.rehydrations - b.rehydrations,
		snapshots: a.snapshots - b.snapshots,
		gcPauseNs: a.gcPauseNs - b.gcPauseNs, allocBytes: a.allocBytes - b.allocBytes,
	}
}

// passResult is one boot-drive-check pass.
type passResult struct {
	setups     []float64
	clients    []*client
	elapsed    float64 // measured window, seconds
	seconds    int     // whole seconds the window was asked to last
	heapMB     float64 // median live heap over the window
	heapEndMB  float64 // heap after a forced GC at the end of the window
	rehydP99us float64 // slowest node's rehydrate p99 since boot
	delta      counters
	postings   int
	replayByte int64 // WAL bytes recovery read at boot
	checks     int
	failedChk  int
	gateErr    error
	ops        opLog
	specs      []nodeSpec
}

// runPass boots the workload's stack boots times (each boot timed to
// its first healthy answer; all but the last are closed again), drives
// the last one through warm-up and the measured window, and runs the
// correctness gate.
func runPass(p *prep, o options, tr *recorder, boots int) (*passResult, error) {
	res := &passResult{seconds: o.seconds}
	var st *stack
	var wp pass
	for i := 0; i < boots; i++ {
		wp = newPass(p, o.workload)
		var setup float64
		var err error
		st, setup, err = boot(p.c, p.work, wp.specs(), tr)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		res.setups = append(res.setups, setup)
		if i < boots-1 {
			if err := st.close(); err != nil {
				return nil, err
			}
			removeWALs(st)
		}
	}
	for _, nd := range st.nodes {
		res.specs = append(res.specs, nd.spec)
		res.replayByte += nd.svc.RecoveryStats().ReplayBytes
	}
	res.postings = st.nodes[0].svc.QueryStats().Postings
	hc := newHTTPClient(runtime.NumCPU())
	defer hc.CloseIdleConnections()
	start := time.Now()
	w := window{measure: start.Add(warmup), stop: start.Add(warmup + time.Duration(o.seconds)*time.Second)}
	var before counters
	var heap []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(w.measure))
		before = readCounters(st)
		heap = sampleLiveHeap(w.stop)
	}()
	res.clients = runClients(wp.loops(st, w), hc, tr)
	wg.Wait()
	res.heapMB = median(heap)
	res.elapsed = time.Since(w.measure).Seconds()
	res.delta = readCounters(st).sub(before)
	for _, nd := range st.nodes {
		res.rehydP99us = max(res.rehydP99us, nd.svc.Residency().RehydrateP99*1e6)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapEndMB = float64(ms.HeapAlloc) / 1e6
	hc.CloseIdleConnections()
	res.checks, res.failedChk, res.gateErr = wp.check(st)
	if err := st.close(); err != nil {
		return nil, err
	}
	removeWALs(st)
	res.ops = wp.ops()
	return res, nil
}

// sampleLiveHeap reads the live heap the last completed GC cycle
// marked, every heapEvery until stop, in MB. A forced GC at a single
// instant would instead catch snapshot and compaction cycles at a
// different phase on every run.
func sampleLiveHeap(stop time.Time) []float64 {
	const heapEvery = 200 * time.Millisecond
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var out []float64
	for time.Now().Before(stop) {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			out = append(out, float64(s[0].Value.Uint64())/1e6)
		}
		time.Sleep(heapEvery)
	}
	return out
}

func removeWALs(st *stack) {
	for _, nd := range st.nodes {
		if d := nd.spec.opts.WALDir; d != "" {
			os.RemoveAll(d)
		}
	}
}

func (r *passResult) attempted() int64 {
	n := int64(r.checks)
	for _, c := range r.clients {
		n += c.attempted
	}
	return n
}

func (r *passResult) failed() int64 {
	n := int64(r.failedChk)
	for _, c := range r.clients {
		n += c.failed
	}
	return n
}

// latencies pools the clients' samples of the given kinds (all kinds
// when none are named), sorted.
func (r *passResult) latencies(kinds ...kind) []float64 {
	var out []float64
	for _, c := range r.clients {
		for _, t := range c.timed {
			if len(kinds) == 0 || slices.Contains(kinds, t.k) {
				out = append(out, t.us)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// logFailures prints the first failures each client saw.
func (r *passResult) logFailures(pass string) {
	for i, c := range r.clients {
		for _, e := range c.errs {
			logf("%s pass, client %d: %s", pass, i, e)
		}
	}
}

// slices groups the timed operations' latencies by the whole second of
// the window they completed in; operations completing after the window
// closed are dropped.
func (r *passResult) slices(seconds int) [][]float64 {
	out := make([][]float64, seconds)
	for _, c := range r.clients {
		for _, t := range c.timed {
			if i := int(t.at); i < seconds {
				out[i] = append(out[i], t.us)
			}
		}
	}
	return out
}

func (r *passResult) sliceCounts(seconds int) []int {
	var n []int
	for _, s := range r.slices(seconds) {
		n = append(n, len(s))
	}
	return n
}

// tailChunk is how many consecutive operations share one tail
// estimate: enough that each chunk supports its p99.
const tailChunk = 2000

// chunkP99 cuts the window's operations, in completion order, into
// chunks of tailChunk and reports the median of the chunks' p99s: the
// tail of typical traffic, which a few stalled stretches do not move.
func (r *passResult) chunkP99() (float64, bool) {
	var all []timedOp
	for _, c := range r.clients {
		all = append(all, c.timed...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var p99s []float64
	for i := 0; i+tailChunk <= len(all); i += tailChunk {
		chunk := make([]float64, tailChunk)
		for k, t := range all[i : i+tailChunk] {
			chunk[k] = t.us
		}
		v, _ := percentile(sortedCopy(chunk), 0.99)
		p99s = append(p99s, v)
	}
	return median(p99s), len(p99s) > 0
}

// e2eNames are the contract metrics: present and non-zero on every
// workload.
var e2eNames = []string{"setup_s", "ops_per_s", "op_p50_us", "op_p90_us", "live_heap_mb"}

// e2e computes every end-to-end figure of a pass: the contract metrics
// plus per-route ones that exist only where the route is driven.
func (r *passResult) e2e() map[string]metric {
	m := map[string]metric{}
	all := r.latencies()
	m["setup_s"] = metric{median(r.setups), "s"}
	m["ops_per_s"] = metric{float64(len(all)) / r.elapsed, "1/s"}
	p50, _ := percentile(all, 0.5)
	m["op_p50_us"] = metric{p50, "us"}
	if v, ok := percentile(all, 0.9); ok {
		m["op_p90_us"] = metric{v, "us"}
	}
	if v, ok := r.chunkP99(); ok {
		m["op_chunk_p99_us"] = metric{v, "us"}
	}
	if v, ok := percentile(all, 0.99); ok {
		m["op_p99_us"] = metric{v, "us"}
	}
	m["live_heap_mb"] = metric{r.heapMB, "MB"}
	m["live_heap_end_mb"] = metric{r.heapEndMB, "MB"}
	m["op_samples"] = metric{float64(len(all)), "count"}
	var posts int64
	for _, c := range r.clients {
		posts += c.posts
	}
	m["posts_per_s"] = metric{float64(posts) / r.elapsed, "1/s"}
	q := r.latencies(kTopK, kSearch)
	m["queries_per_s"] = metric{float64(len(q)) / r.elapsed, "1/s"}
	for k := kind(0); k < nKinds; k++ {
		l := r.latencies(k)
		if len(l) == 0 {
			continue
		}
		v, _ := percentile(l, 0.5)
		m[kindNames[k]+"_p50_us"] = metric{v, "us"}
		if v, ok := percentile(l, 0.99); ok {
			m[kindNames[k]+"_p99_us"] = metric{v, "us"}
		}
		m[kindNames[k]+"_samples"] = metric{float64(len(l)), "count"}
	}
	m["failed_frac"] = metric{float64(r.failed()) / float64(max(r.attempted(), 1)), "ratio"}
	return m
}
