package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span recording. Spans are taken at the HTTP boundaries the benchmark
// controls from outside the program: its own client calls, middleware
// around each node's and the gateway's Handler(), and a RoundTripper
// under the gateway's backend client. A request-id header joins the
// spans of one user operation; a parent header links each span to the
// span that caused it.

const (
	hdrRequest = "X-Perfbench-Request"
	hdrParent  = "X-Perfbench-Parent"
)

// span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is 0 for a root; Req is the user
// operation the span belongs to (0 for background traffic such as
// health probes).
type span struct {
	Name       string
	ID, Parent uint64
	Req        uint64
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span in memory until the run ends, in
// fixed-size chunks so recording never copies what it already holds.
type recorder struct {
	t0  time.Time
	ids atomic.Uint64

	mu     sync.Mutex
	chunks [][]span
}

const spanChunk = 1 << 16

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) id() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if n := len(r.chunks); n == 0 || len(r.chunks[n-1]) == spanChunk {
		r.chunks = append(r.chunks, make([]span, 0, spanChunk))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// writeSpans writes every span as one tab-separated line under a
// header.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.Name, s.ID, s.Parent, s.Req, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// spanRef is what a handler span leaves in its request context so the
// gateway's backend legs can name their parent.
type spanRef struct{ req, id uint64 }

func headerIDs(h http.Header) (req, parent uint64) {
	req, _ = strconv.ParseUint(h.Get(hdrRequest), 10, 64)
	parent, _ = strconv.ParseUint(h.Get(hdrParent), 10, 64)
	return req, parent
}

func setHeaderIDs(h http.Header, req, parent uint64) {
	h.Set(hdrRequest, strconv.FormatUint(req, 10))
	h.Set(hdrParent, strconv.FormatUint(parent, 10))
}

// handler wraps a serving Handler() in a span named kind:<path>.
func (r *recorder) handler(kind string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rq, parent := headerIDs(req.Header)
		sp := span{Name: kind + ":" + req.URL.Path, ID: r.id(), Parent: parent, Req: rq, Start: r.now()}
		req = req.WithContext(context.WithValue(req.Context(), spanKey{}, spanRef{rq, sp.ID}))
		h.ServeHTTP(w, req)
		sp.End = r.now()
		r.add(sp)
	})
}

// legTransport times the gateway's backend round trips. It delegates to
// http.DefaultTransport, which is what an untraced gateway uses.
type legTransport struct{ r *recorder }

func (t legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanKey{}).(spanRef)
	sp := span{Name: "leg:" + req.URL.Path, ID: t.r.id(), Parent: ref.id, Req: ref.req, Start: t.r.now()}
	req = req.Clone(req.Context())
	setHeaderIDs(req.Header, ref.req, sp.ID)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		sp.End = t.r.now()
		t.r.add(sp)
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, done: func() {
		sp.End = t.r.now()
		t.r.add(sp)
	}}
	return resp, nil
}

// legBody ends its leg span when the gateway closes the response body.
type legBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// interval is a half-open [start, end) range in nanoseconds.
type interval struct{ start, end int64 }

// union merges intervals into disjoint phases sorted by start, clipped
// to [lo, hi).
func union(xs []interval, lo, hi int64) []interval {
	var clipped []interval
	for _, x := range xs {
		s, e := max(x.start, lo), min(x.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var out []interval
	for _, x := range clipped {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, x.end)
			continue
		}
		out = append(out, x)
	}
	return out
}

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children count once.
func selfTime(parent span, children []span) int64 {
	xs := make([]interval, len(children))
	for i, c := range children {
		xs[i] = interval{c.Start, c.End}
	}
	covered := int64(0)
	for _, ph := range union(xs, parent.Start, parent.End) {
		covered += ph.end - ph.start
	}
	return parent.dur() - covered
}

// layerOf maps a span name to the ledger layer its self time belongs
// to. Node handler time is split further with the layer replay.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client:"):
		return "transport"
	case strings.HasPrefix(name, "gateway:"), strings.HasPrefix(name, "leg:"):
		return "cluster"
	case strings.HasPrefix(name, "node:"):
		return "node"
	}
	return "unattributed"
}

// tree indexes one user operation's spans by parent.
type tree struct {
	kids map[uint64][]span
}

func newTree(spans []span) tree {
	t := tree{kids: map[uint64][]span{}}
	for _, s := range spans {
		t.kids[s.Parent] = append(t.kids[s.Parent], s)
	}
	return t
}

// attribute charges s's wall time to layers along the critical path:
// time no child covers goes to s's own layer; each phase of
// overlapping children goes to the child that ends last (recursively),
// and the part of the phase that child does not cover stays with s.
// The charges sum to s's duration.
func (t tree) attribute(s span, out map[string]int64) {
	kids := t.kids[s.ID]
	xs := make([]interval, len(kids))
	for i, c := range kids {
		xs[i] = interval{c.Start, c.End}
	}
	own := s.dur()
	for _, ph := range union(xs, s.Start, s.End) {
		var crit span
		found := false
		for _, c := range kids {
			if c.Start < ph.end && c.End > ph.start && (!found || c.End > crit.End) {
				crit, found = c, true
			}
		}
		crit.Start, crit.End = max(crit.Start, ph.start), min(crit.End, ph.end)
		t.attribute(crit, out)
		own -= crit.dur()
	}
	out[layerOf(s.Name)] += own
}
