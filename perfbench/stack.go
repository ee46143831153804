package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"incentivetag"
	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

// The serving stack: internal/server nodes and, for cluster, an
// internal/cluster gateway, each on its own 127.0.0.1 listener inside
// this process, configured as tagserved and taggate configure them by
// default (zero admission config, default timeouts).

// nodeSpec configures one node.
type nodeSpec struct {
	opts   incentivetag.ServiceOptions
	walSrc string // pre-built WAL directory each boot starts from ("" = in-memory)
}

type node struct {
	spec nodeSpec
	svc  *incentivetag.Service
	srv  *server.Server
	hs   *http.Server // the traced path serves through its own http.Server
	url  string
	done chan struct{}
}

type stack struct {
	nodes []*node
	gw    *cluster.Gateway
	gwHS  *http.Server
	gwEnd chan struct{}
	url   string // what clients talk to
}

// serve runs h on l until shut down; done closes when Serve returns.
func serve(hs *http.Server, l net.Listener) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l)
	}()
	return done
}

// startNode builds the service and server and starts serving on l.
func startNode(c *corpus, spec nodeSpec, l net.Listener, mapHash string, tr *recorder) (*node, error) {
	svc, err := incentivetag.NewService(c.ds, spec.opts)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Service:      svc,
		Strategy:     "FP-MU",
		TagUniverse:  c.ds.Vocab.Size(),
		ShardMapHash: mapHash,
	})
	if err != nil {
		svc.Close()
		return nil, err
	}
	nd := &node{spec: spec, svc: svc, srv: srv, url: "http://" + l.Addr().String(), done: make(chan struct{})}
	if tr == nil {
		go func() {
			defer close(nd.done)
			srv.Serve(l)
		}()
	} else {
		nd.hs = &http.Server{Handler: tr.handler("node", srv.Handler())}
		nd.done = serve(nd.hs, l)
	}
	return nd, nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// boot starts a stack from specs (one spec: a standalone node; several:
// cluster members behind a gateway) and returns it once the front
// door's /healthz answers 200 with every node ready, with the time that
// took. WAL directories are copied from their pre-built sources before
// the clock starts.
func boot(c *corpus, work string, specs []nodeSpec, tr *recorder) (*stack, float64, error) {
	for i := range specs {
		if specs[i].walSrc == "" {
			continue
		}
		dir, err := os.MkdirTemp(work, "wal-")
		if err != nil {
			return nil, 0, err
		}
		if err := copyDir(specs[i].walSrc, dir); err != nil {
			return nil, 0, err
		}
		specs[i].opts.WALDir = dir
	}
	ls := make([]net.Listener, len(specs))
	for i := range ls {
		l, err := listen()
		if err != nil {
			return nil, 0, err
		}
		ls[i] = l
	}
	t0 := time.Now()
	st := &stack{}
	fail := func(err error) (*stack, float64, error) {
		st.close()
		for _, l := range ls[len(st.nodes):] {
			l.Close()
		}
		return nil, 0, err
	}
	if len(specs) == 1 {
		nd, err := startNode(c, specs[0], ls[0], "", tr)
		if err != nil {
			return fail(err)
		}
		st.nodes = append(st.nodes, nd)
		st.url = nd.url
	} else {
		m := &cluster.Map{VNodes: cluster.DefaultVNodes}
		for i, l := range ls {
			m.Nodes = append(m.Nodes, cluster.Node{Name: fmt.Sprintf("node%d", i), URL: "http://" + l.Addr().String()})
		}
		for i, n := range m.Nodes {
			owned, err := m.OwnedBy(n.Name)
			if err != nil {
				return fail(err)
			}
			specs[i].opts.Owned = owned
			nd, err := startNode(c, specs[i], ls[i], m.Hash(), tr)
			if err != nil {
				return fail(err)
			}
			st.nodes = append(st.nodes, nd)
		}
		cfg := cluster.Config{Map: m}
		if tr != nil {
			cfg.Transport = legTransport{tr}
		}
		gw, err := cluster.New(cfg)
		if err != nil {
			return fail(err)
		}
		gl, err := listen()
		if err != nil {
			return fail(err)
		}
		var h http.Handler = gw.Handler()
		if tr != nil {
			h = tr.handler("gateway", h)
		}
		st.gw = gw
		st.gwHS = &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       server.DefaultReadTimeout,
			WriteTimeout:      server.DefaultWriteTimeout,
			IdleTimeout:       server.DefaultIdleTimeout,
		}
		gw.Start()
		st.gwEnd = serve(st.gwHS, gl)
		st.url = "http://" + gl.Addr().String()
	}
	if err := waitHealthy(st.url, st.gw != nil); err != nil {
		return fail(err)
	}
	return st, time.Since(t0).Seconds(), nil
}

// waitHealthy polls /healthz until it answers 200 (and, on a gateway,
// reports every node up).
func waitHealthy(url string, gateway bool) error {
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			var h cluster.HealthResponse
			ok := resp.StatusCode == http.StatusOK
			if ok && gateway {
				ok = decodeJSON(resp.Body, &h) == nil && h.Ready
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", url)
}

// stopServing shuts every listener down and waits for the servers to
// return, leaving the services open for inspection.
func (st *stack) stopServing() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.gwHS != nil {
		st.gwHS.Shutdown(ctx)
		<-st.gwEnd
		st.gw.Stop()
		st.gwHS = nil
	}
	for _, nd := range st.nodes {
		if nd.hs != nil {
			nd.hs.Shutdown(ctx)
		} else {
			nd.srv.Shutdown(ctx)
		}
		<-nd.done
	}
}

// close stops serving and closes every service, returning the first
// Close error.
func (st *stack) close() error {
	st.stopServing()
	var first error
	for _, nd := range st.nodes {
		if nd.svc == nil {
			continue
		}
		if err := nd.svc.Close(); err != nil && first == nil {
			first = err
		}
		nd.svc = nil
	}
	return first
}

// copyDir copies the regular files of src into dst (WAL directories are
// flat).
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
