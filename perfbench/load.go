package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Closed-loop load: each client sends its next request only after the
// previous answer arrived, as crowd workers and explorers do.

// kind is a user operation class.
type kind int

const (
	kTask   kind = iota // POST /allocate then POST /complete
	kIngest             // one 64-event POST /ingest
	kTopK               // GET /topk
	kSearch             // GET /search
	nKinds
)

var kindNames = [nKinds]string{"task", "ingest", "topk", "search"}

// window is the measured interval; operations that start before
// measure are warm-up and are not counted.
type window struct {
	measure, stop time.Time
}

// client is one closed-loop client with its own connection pool share,
// latency samples and failure log.
type client struct {
	hc *http.Client
	tr *recorder

	timed     []timedOp     // measured successful operations, in completion order
	posts     int64         // posts acknowledged inside the window
	reqs      int64         // HTTP requests sent inside the window
	reqBytes  [nKinds]int64 // request body bytes inside the window, per route
	attempted int64         // operations attempted inside the window
	failed    int64         // operations failed inside the window
	leaseTry  int64         // /allocate answers inside the window
	leaseOK   int64         // of which ok:true
	errs      []string

	resp bytes.Buffer
	buf  []byte
}

// newHTTPClient allows at most conns connections per host.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// timedOp is one successful measured operation: its route, when it
// completed (seconds into the window) and its latency (µs).
type timedOp struct {
	k      kind
	at, us float64
}

// count is how many operations of route k the client timed.
func (c *client) count(k kind) int {
	n := 0
	for _, t := range c.timed {
		if t.k == k {
			n++
		}
	}
	return n
}

// op is one user operation in flight.
type op struct {
	k         kind
	start     time.Time
	measured  bool
	req, span uint64 // trace ids (0 when untraced)
	t0        int64
	w         window
}

func (c *client) begin(k kind, w window) op {
	o := op{k: k, start: time.Now(), w: w}
	o.measured = !o.start.Before(w.measure)
	if o.measured {
		c.attempted++
		if c.tr != nil {
			o.req, o.span, o.t0 = c.tr.id(), c.tr.id(), c.tr.now()
		}
	}
	return o
}

// end closes an operation; a failed one is logged and counted, never
// timed.
func (c *client) end(o op, err error) {
	if o.req != 0 {
		c.tr.add(span{Name: "op:" + kindNames[o.k], ID: o.span, Req: o.req, Start: o.t0, End: c.tr.now()})
	}
	if err != nil {
		if o.measured {
			c.failed++
		}
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
		return
	}
	if o.measured {
		now := time.Now()
		c.timed = append(c.timed, timedOp{k: o.k, at: now.Sub(o.w.measure).Seconds(), us: float64(now.Sub(o.start).Nanoseconds()) / 1e3})
	}
}

// do sends one request of o and leaves the body in c.resp. Any status
// other than 200 is an error.
func (c *client) do(o op, method, url string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp span
	if o.req != 0 {
		path := req.URL.Path
		sp = span{Name: "client:" + path, ID: c.tr.id(), Parent: o.span, Req: o.req, Start: c.tr.now()}
		setHeaderIDs(req.Header, o.req, sp.ID)
	}
	if o.measured {
		c.reqs++
		c.reqBytes[o.k] += int64(len(body))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if o.req != 0 {
		sp.End = c.tr.now()
		c.tr.add(sp)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, req.URL.Path, resp.StatusCode, strings.TrimSpace(c.resp.String()))
	}
	return nil
}

// runClients runs every loop until the window closes and
// waits for all of them.
func runClients(loops []func(c *client), hc *http.Client, tr *recorder) []*client {
	cls := make([]*client, len(loops))
	var wg sync.WaitGroup
	for i, d := range loops {
		cls[i] = &client{hc: hc, tr: tr}
		wg.Add(1)
		go func(c *client, d func(*client)) {
			defer wg.Done()
			d(c)
		}(cls[i], d)
	}
	wg.Wait()
	return cls
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }
