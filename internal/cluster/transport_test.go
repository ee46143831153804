package cluster_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetag/internal/cluster"
	"incentivetag/internal/server"
)

// barrier holds every arriving request until want of them are in
// flight at once (or a timeout passes), so a wave of concurrent
// gateway queries really needs want simultaneous connections per node.
type barrier struct {
	want    int32
	arrived atomic.Int32
	release chan struct{}
}

func newBarrier(want int32) *barrier { return &barrier{want: want, release: make(chan struct{})} }

func (b *barrier) wait() {
	if b.arrived.Add(1) == b.want {
		close(b.release)
	}
	select {
	case <-b.release:
	case <-time.After(5 * time.Second):
	}
}

// The gateway's default transport keeps enough idle connections per node
// that a second wave of concurrent queries reuses the first wave's
// connections instead of dialing new ones (http.DefaultTransport keeps
// only 2 per host).
func TestGatewayReusesBackendConnections(t *testing.T) {
	const nodes, wave = 2, 16
	m := &cluster.Map{VNodes: 8}
	var opened [nodes]atomic.Int32
	var gates [nodes]atomic.Pointer[barrier]
	for i := 0; i < nodes; i++ {
		gates[i].Store(newBarrier(wave))
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			server.WriteJSON(w, http.StatusOK, server.HealthResponse{Ready: true})
		})
		mux.HandleFunc("GET /cluster/search", func(w http.ResponseWriter, r *http.Request) {
			gates[i].Load().wait()
			server.WriteJSON(w, http.StatusOK, server.SearchResponse{Tags: []int32{1}, Top: []server.TopKEntry{}})
		})
		ts := httptest.NewUnstartedServer(mux)
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		m.Nodes = append(m.Nodes, cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL})
	}
	g, err := cluster.New(cluster.Config{Map: m, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: wave}}
	t.Cleanup(client.CloseIdleConnections)

	runWave := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, wave)
		for q := 0; q < wave; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(gts.URL + "/search?tags=1&k=5")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	runWave()
	first := make([]int32, nodes)
	for i := range first {
		first[i] = opened[i].Load()
		if first[i] < wave {
			t.Fatalf("node%d: first wave opened %d connections, want at least %d concurrent legs", i, first[i], wave)
		}
		gates[i].Store(newBarrier(wave))
	}
	// Let the transport return the first wave's connections to its pool.
	time.Sleep(100 * time.Millisecond)
	runWave()
	for i := range first {
		if n := opened[i].Load() - first[i]; n != 0 {
			t.Errorf("node%d: second wave opened %d new connections, want 0", i, n)
		}
	}
}
