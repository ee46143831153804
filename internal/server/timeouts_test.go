package server

import "testing"

// The slow-client bounds must land on the built http.Server, header
// timeout included.
func TestHTTPServerTimeouts(t *testing.T) {
	s, err := NewDeferred(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := s.httpServer()
	if hs.ReadTimeout != DefaultReadTimeout ||
		hs.WriteTimeout != DefaultWriteTimeout ||
		hs.IdleTimeout != DefaultIdleTimeout {
		t.Fatalf("defaults not applied: read=%v write=%v idle=%v", hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout == 0 {
		t.Fatal("header timeout lost")
	}
}
