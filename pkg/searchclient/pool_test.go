package searchclient

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestKeepAliveReuse pins the client's connection-pooling contract:
// sequential calls through one Client reuse a kept-alive connection
// instead of dialing per request. The server side counts fresh TCP
// connections via ConnState.
func TestKeepAliveReuse(t *testing.T) {
	var newConns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(QueryResponse{Origin: 1})
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := New(ts.URL)
	const calls = 64
	for i := 0; i < calls; i++ {
		if _, err := c.Query(context.Background(), QueryRequest{Key: uint64(i)}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// One connection should carry all sequential calls; allow a little
	// slack for an idle-timeout race but nothing near one-per-call.
	if got := newConns.Load(); got > 3 {
		t.Fatalf("keep-alive not reused: %d new connections for %d sequential calls", got, calls)
	}
}

// TestKeepAliveReuseConcurrent checks the pool is wide enough that a
// concurrent burst settles onto a bounded connection set instead of
// churning dials (the stdlib default of 2 idle conns per host would).
func TestKeepAliveReuseConcurrent(t *testing.T) {
	var newConns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(QueryResponse{Origin: 1})
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := New(ts.URL)
	const workers, rounds = 8, 32
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < rounds; i++ {
				if _, err := c.Query(context.Background(), QueryRequest{Key: 1}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("query: %v", err)
		}
	}
	// 8 workers need at most ~8 live conns; with MaxIdleConnsPerHost=32
	// every one of them goes back to the pool between rounds. Anything
	// beyond a small multiple of the worker count means churn.
	if got := newConns.Load(); got > workers*2 {
		t.Fatalf("connection churn: %d new connections for %d concurrent calls",
			got, workers*rounds)
	}
}
