package live

import (
	"testing"
	"time"
)

// A Send stuck in dial backoff against a dead peer must return as soon
// as the transport closes — a draining daemon cannot wait out another
// peer's retry ladder.
func TestTCPCloseUnblocksDialBackoff(t *testing.T) {
	tr := NewTCPTransport()
	tr.DialBackoff = 10 * time.Second // long enough that only Close can end the wait
	tr.MaxDialAttempts = 4
	// A port nothing listens on: every dial fails instantly, so Send
	// parks in the first backoff sleep.
	tr.SetAddr(9, "127.0.0.1:1")

	errc := make(chan error, 1)
	go func() { errc <- tr.Send(9, Envelope{Type: MsgQuery, From: 1}) }()

	time.Sleep(50 * time.Millisecond) // let Send reach the backoff sleep
	start := time.Now()
	tr.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Send succeeded against a dead peer")
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("Send took %v to observe Close", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after Close")
	}

	// After Close the transport fails fast instead of re-entering retry.
	start = time.Now()
	if err := tr.Send(9, Envelope{Type: MsgQuery, From: 1}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("post-Close Send took %v", waited)
	}
}

// The jittered backoff stays inside [base/2, base] — enough spread to
// de-synchronize peers without stretching the retry ladder.
func TestTCPBackoffJitterBounds(t *testing.T) {
	tr := NewTCPTransport()
	base := 80 * time.Millisecond
	lo, hi := base, time.Duration(0)
	for i := 0; i < 1000; i++ {
		j := tr.jitter(base)
		if j < base/2 || j > base {
			t.Fatalf("jitter(%v) = %v outside [%v, %v]", base, j, base/2, base)
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	if hi-lo < base/8 {
		t.Fatalf("jitter spread %v over 1000 draws — not spreading retries", hi-lo)
	}
}

// Cancel ends hit collection early and reports Stopped; Fanout counts
// the first-hop copies.
func TestQueryInfoCancelAndFanout(t *testing.T) {
	tr := NewChanTransport()
	origin := NewNode(Config{ID: 1, Neighbors: 4, TTL: 3, Transport: tr, Store: MapStore{}})
	tr.Attach(origin)
	origin.Start()
	defer origin.Close()
	// The peer never runs: the copy sent to it sits in its inbox, no ack
	// comes back, and only Cancel or the window can end the query.
	peer := NewNode(Config{ID: 2, Neighbors: 4, TTL: 3, Transport: tr, Store: MapStore{}})
	tr.Attach(peer)
	origin.AddNeighbor(2)

	cancel := make(chan struct{})
	time.AfterFunc(30*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	hits, info := origin.QueryInfo(QueryOpts{Key: 404, Timeout: 10 * time.Second, Cancel: cancel})
	if len(hits) != 0 {
		t.Fatalf("got %d hits for a missing key", len(hits))
	}
	if !info.Stopped || info.Complete || info.Expired {
		t.Fatalf("info = %+v, want Stopped only", info)
	}
	if info.Fanout != 1 {
		t.Fatalf("Fanout = %d, want 1", info.Fanout)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("canceled query waited out the timeout")
	}

	// A Cancel that has already fired may end collection before the node
	// has sent anything; Fanout says so rather than claiming isolation.
	_, info = origin.QueryInfo(QueryOpts{Key: 404, Timeout: 10 * time.Second, Cancel: cancel})
	if !info.Stopped || (info.Fanout != -1 && info.Fanout != 1) {
		t.Fatalf("pre-cancelled query: info = %+v", info)
	}

	// Without Cancel the same query ends on its window, not Stopped.
	_, info = origin.QueryInfo(QueryOpts{Key: 404, Timeout: 20 * time.Millisecond})
	if info.Stopped || !info.Expired {
		t.Fatalf("timed-out query: info = %+v, want Expired", info)
	}
}

// An origin with no neighbors reports Fanout 0 — the isolated-node
// signal the daemon surfaces as a degraded response.
func TestQueryInfoZeroFanoutWhenIsolated(t *testing.T) {
	tr := NewChanTransport()
	n := NewNode(Config{ID: 1, Neighbors: 4, TTL: 3, Transport: tr, Store: MapStore{}})
	tr.Attach(n)
	n.Start()
	defer n.Close()
	_, info := n.QueryInfo(QueryOpts{Key: 7, Timeout: 5 * time.Millisecond})
	if info.Fanout != 0 {
		t.Fatalf("Fanout = %d for an isolated node", info.Fanout)
	}
}
