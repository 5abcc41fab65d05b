package live

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// cluster spins up n in-process nodes on a shared ChanTransport.
func cluster(t *testing.T, n, neighbors, ttl, threshold int) ([]*Node, *ChanTransport) {
	t.Helper()
	tr := NewChanTransport()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode(Config{
			ID:                topology.NodeID(i),
			Neighbors:         neighbors,
			TTL:               ttl,
			Transport:         tr,
			Store:             MapStore{},
			Class:             netsim.Cable,
			ReconfigThreshold: threshold,
		})
		tr.Attach(nodes[i])
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, tr
}

// query originates one search from n and returns its hits.
func query(n *Node, opts QueryOpts) []SearchHit {
	hits, _ := n.QueryInfo(opts)
	return hits
}

// search is query with only a key and a collection window.
func search(n *Node, key core.Key, timeout time.Duration) []SearchHit {
	return query(n, QueryOpts{Key: key, Timeout: timeout})
}

// link wires a symmetric edge for bootstrap.
func link(a, b *Node) {
	a.AddNeighbor(b.ID())
	b.AddNeighbor(a.ID())
}

func TestMapStore(t *testing.T) {
	s := MapStore{}
	if s.Has(1) {
		t.Fatal("empty store has key")
	}
	s.Add(1)
	if !s.Has(1) {
		t.Fatal("store lost key")
	}
}

func TestSearchFindsDirectNeighbor(t *testing.T) {
	nodes, _ := cluster(t, 3, 4, 2, 0)
	nodes[1].cfg.Store.(MapStore).Add(42)
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	hits := search(nodes[0], 42, 200*time.Millisecond)
	if len(hits) != 1 || hits[0].Holder != 1 {
		t.Fatalf("hits: %+v", hits)
	}
	if hits[0].Hops != 1 {
		t.Fatalf("hops = %d", hits[0].Hops)
	}
	if hits[0].Class != netsim.Cable {
		t.Fatalf("class = %v", hits[0].Class)
	}
}

func TestSearchTraversesMultipleHops(t *testing.T) {
	nodes, _ := cluster(t, 4, 4, 3, 0)
	// Chain 0-1-2-3; content at 3 (three hops away).
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	link(nodes[2], nodes[3])
	nodes[3].cfg.Store.(MapStore).Add(7)
	hits := search(nodes[0], 7, 300*time.Millisecond)
	if len(hits) != 1 || hits[0].Holder != 3 || hits[0].Hops != 3 {
		t.Fatalf("hits: %+v", hits)
	}
}

func TestSearchRespectsTTL(t *testing.T) {
	nodes, _ := cluster(t, 4, 4, 2, 0)
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	link(nodes[2], nodes[3])
	nodes[3].cfg.Store.(MapStore).Add(7)
	if hits := search(nodes[0], 7, 200*time.Millisecond); len(hits) != 0 {
		t.Fatalf("TTL 2 found a 3-hop holder: %+v", hits)
	}
}

func TestSearchMiss(t *testing.T) {
	nodes, _ := cluster(t, 2, 4, 2, 0)
	link(nodes[0], nodes[1])
	if hits := search(nodes[0], 999, 100*time.Millisecond); len(hits) != 0 {
		t.Fatalf("miss returned hits: %+v", hits)
	}
}

func TestSearchCollectsMultipleHolders(t *testing.T) {
	nodes, _ := cluster(t, 4, 4, 1, 0)
	for i := 1; i < 4; i++ {
		link(nodes[0], nodes[i])
		nodes[i].cfg.Store.(MapStore).Add(5)
	}
	hits := search(nodes[0], 5, 300*time.Millisecond)
	if len(hits) != 3 {
		t.Fatalf("expected 3 holders, got %+v", hits)
	}
}

func TestServingNodeDoesNotForward(t *testing.T) {
	nodes, _ := cluster(t, 3, 4, 3, 0)
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	nodes[1].cfg.Store.(MapStore).Add(5)
	nodes[2].cfg.Store.(MapStore).Add(5)
	hits := search(nodes[0], 5, 300*time.Millisecond)
	if len(hits) != 1 || hits[0].Holder != 1 {
		t.Fatalf("propagation past a serving node: %+v", hits)
	}
}

func TestStatisticsAccumulate(t *testing.T) {
	nodes, _ := cluster(t, 2, 4, 1, 0)
	link(nodes[0], nodes[1])
	nodes[1].cfg.Store.(MapStore).Add(5)
	search(nodes[0], 5, 200*time.Millisecond)
	var benefit float64
	nodes[0].do(func(st *state) {
		if r := st.ledger.Get(1); r != nil {
			benefit = r.Benefit
		}
	})
	// One result, R=1, cable weight 2 => benefit 2.
	if benefit != 2 {
		t.Fatalf("benefit = %v, want 2", benefit)
	}
}

func TestReconfigureInvitesBestPeer(t *testing.T) {
	// Capacity 2 so the relay node 1 can hold both edges of the chain
	// 0-1-2; node 2 holds the content two hops away.
	nodes, _ := cluster(t, 4, 2, 2, 0)
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	nodes[2].cfg.Store.(MapStore).Add(9)
	hits := search(nodes[0], 9, 300*time.Millisecond)
	if len(hits) != 1 || hits[0].Holder != 2 {
		t.Fatalf("setup search failed: %+v", hits)
	}
	nodes[0].Reconfigure()
	deadline := time.After(2 * time.Second)
	for {
		if hasNeighbor(nodes[0], 2) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("node 0 never adopted the discovered holder: %v", nodes[0].Neighbors())
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The invited node must now list 0 as a neighbor too.
	deadline = time.After(2 * time.Second)
	for {
		if hasNeighbor(nodes[2], 0) {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("invited node did not add the inviter: %v", nodes[2].Neighbors())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// hasNeighbor reports whether node n currently lists id.
func hasNeighbor(n *Node, id topology.NodeID) bool {
	for _, v := range n.Neighbors() {
		if v == id {
			return true
		}
	}
	return false
}

func TestEvictionResetsStatistics(t *testing.T) {
	nodes, _ := cluster(t, 2, 4, 2, 0)
	link(nodes[0], nodes[1])
	nodes[1].cfg.Store.(MapStore).Add(5)
	search(nodes[0], 5, 200*time.Millisecond)
	// Node 0 evicts node 1 by hand.
	nodes[0].do(func(st *state) {
		removeNeighbor(st, 1)
	})
	nodes[1].Deliver(Envelope{Type: MsgEvict, From: 0})
	time.Sleep(50 * time.Millisecond)
	var hasStats bool
	nodes[1].do(func(st *state) { hasStats = st.ledger.Get(0) != nil })
	if hasStats {
		t.Fatal("evicted node kept statistics about evictor")
	}
	for _, v := range nodes[1].Neighbors() {
		if v == 0 {
			t.Fatal("evicted edge still present")
		}
	}
}

func TestAutomaticReconfigurationAfterThreshold(t *testing.T) {
	nodes, _ := cluster(t, 3, 2, 2, 2) // θ=2, capacity 2
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	nodes[2].cfg.Store.(MapStore).Add(9)
	search(nodes[0], 9, 200*time.Millisecond)
	search(nodes[0], 9, 200*time.Millisecond) // second search crosses θ
	deadline := time.After(2 * time.Second)
	for {
		if hasNeighbor(nodes[0], 2) {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("automatic reconfiguration never happened: %v", nodes[0].Neighbors())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Diamond 0-{1,2}-3: node 3 must answer exactly once.
	nodes, _ := cluster(t, 4, 4, 2, 0)
	link(nodes[0], nodes[1])
	link(nodes[0], nodes[2])
	link(nodes[1], nodes[3])
	link(nodes[2], nodes[3])
	nodes[3].cfg.Store.(MapStore).Add(5)
	hits := search(nodes[0], 5, 300*time.Millisecond)
	if len(hits) != 1 {
		t.Fatalf("duplicate replies: %+v", hits)
	}
}

func TestNodePanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nil transport": {Store: MapStore{}, Neighbors: 1, TTL: 1},
		"nil store":     {Transport: NewChanTransport(), Neighbors: 1, TTL: 1},
		"zero cap":      {Transport: NewChanTransport(), Store: MapStore{}, TTL: 1},
		"zero ttl":      {Transport: NewChanTransport(), Store: MapStore{}, Neighbors: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			NewNode(cfg)
		}()
	}
}

func TestChanTransportUnknownNode(t *testing.T) {
	tr := NewChanTransport()
	if err := tr.Send(99, Envelope{}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestChanTransportUnregister(t *testing.T) {
	tr := NewChanTransport()
	tr.Register(1)
	tr.Unregister(1)
	if err := tr.Send(1, Envelope{}); err == nil {
		t.Fatal("send after unregister succeeded")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, m := range []MsgType{MsgQuery, MsgHit, MsgInvite, MsgInviteReply, MsgEvict} {
		if m.String() == "" {
			t.Fatalf("type %d has empty string", m)
		}
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()

	a := NewNode(Config{ID: 0, Neighbors: 4, TTL: 2, Transport: tr, Store: MapStore{}, Class: netsim.LAN})
	b := NewNode(Config{ID: 1, Neighbors: 4, TTL: 2, Transport: tr, Store: MapStore{5: {}}, Class: netsim.LAN})
	addrA, stopA, err := Listen("127.0.0.1:0", a.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer stopA()
	addrB, stopB, err := Listen("127.0.0.1:0", b.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer stopB()
	tr.SetAddr(0, addrA)
	tr.SetAddr(1, addrB)

	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	a.AddNeighbor(1)
	b.AddNeighbor(0)

	hits := search(a, 5, 500*time.Millisecond)
	if len(hits) != 1 || hits[0].Holder != 1 {
		t.Fatalf("TCP search hits: %+v", hits)
	}
}

func TestTCPTransportUnknownAddress(t *testing.T) {
	tr := NewTCPTransport()
	if err := tr.Send(42, Envelope{}); err == nil {
		t.Fatal("send to unknown address succeeded")
	}
}

func TestQueryMaxHitsReturnsEarly(t *testing.T) {
	nodes, _ := cluster(t, 4, 4, 1, 0)
	for i := 1; i < 4; i++ {
		link(nodes[0], nodes[i])
		nodes[i].cfg.Store.(MapStore).Add(5)
	}
	start := time.Now()
	hits := query(nodes[0], QueryOpts{Key: 5, Timeout: 10 * time.Second, MaxHits: 1})
	if len(hits) != 1 {
		t.Fatalf("MaxHits 1 returned %d hits", len(hits))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("early return took %v (timeout-bound, not hit-bound)", elapsed)
	}
}

func TestQueryTTLOverride(t *testing.T) {
	nodes, _ := cluster(t, 4, 4, 2, 0) // config TTL 2
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	link(nodes[2], nodes[3])
	nodes[3].cfg.Store.(MapStore).Add(7)
	if hits := query(nodes[0], QueryOpts{Key: 7, Timeout: 200 * time.Millisecond}); len(hits) != 0 {
		t.Fatalf("config TTL 2 reached a 3-hop holder: %+v", hits)
	}
	hits := query(nodes[0], QueryOpts{Key: 7, TTL: 3, Timeout: 300 * time.Millisecond, MaxHits: 1})
	if len(hits) != 1 || hits[0].Holder != 3 {
		t.Fatalf("TTL override 3 missed the holder: %+v", hits)
	}
}

func TestCloseDrainsQueuedEnvelopes(t *testing.T) {
	// A stopped-Start node accumulates envelopes in its inbox; Close
	// must process all of them before returning. The node serves key 5,
	// so each drained query envelope produces a hit reply we can count.
	tr := NewChanTransport()
	stats := &NodeStats{}
	served := NewNode(Config{ID: 1, Neighbors: 4, TTL: 2, Transport: tr,
		Store: MapStore{5: {}}, Class: netsim.Cable, Stats: stats})
	tr.Attach(served)
	const queued = 500
	for i := 0; i < queued; i++ {
		served.Deliver(Envelope{Type: MsgQuery, From: 0, QueryID: core.QueryID(i + 1),
			Key: 5, Origin: 0, TTL: 2, Hops: 1})
	}
	served.Start()
	served.Close()
	if got := stats.QueriesSeen.Load(); got != queued {
		t.Fatalf("Close drained %d of %d queued queries", got, queued)
	}
	if got := stats.HitsServed.Load(); got != queued {
		t.Fatalf("drained queries served %d of %d hits", got, queued)
	}
	// Idempotent.
	served.Close()
}

func TestCloseThenDeliverDrops(t *testing.T) {
	tr := NewChanTransport()
	n := NewNode(Config{ID: 0, Neighbors: 4, TTL: 2, Transport: tr,
		Store: MapStore{}, Class: netsim.Cable, Stats: &NodeStats{}})
	n.Start()
	n.Close()
	// Must not block or panic after the loop has exited.
	n.Deliver(Envelope{Type: MsgQuery, QueryID: 1, Key: 5, Origin: 0, TTL: 2, Hops: 1})
}

func TestTCPDialRetrySucceedsAfterPeerBoots(t *testing.T) {
	// Reserve an address, close the listener (refused dials), then
	// bring the real listener up while Send is inside its retry loop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	tr := NewTCPTransport()
	defer tr.Close()
	tr.DialBackoff = 50 * time.Millisecond
	tr.SetAddr(1, addr)

	got := make(chan Envelope, 1)
	go func() {
		time.Sleep(80 * time.Millisecond) // inside attempt 2's backoff
		_, stop, err := Listen(addr, func(env Envelope) { got <- env })
		if err != nil {
			t.Errorf("late listen: %v", err)
			return
		}
		t.Cleanup(stop)
	}()
	if err := tr.Send(1, Envelope{Type: MsgQuery, QueryID: 9}); err != nil {
		t.Fatalf("send with retry failed: %v", err)
	}
	select {
	case env := <-got:
		if env.QueryID != 9 {
			t.Fatalf("delivered %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retried send never delivered")
	}
}

func TestTCPDialCooldownFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	tr := NewTCPTransport()
	tr.MaxDialAttempts = 2
	tr.DialBackoff = 5 * time.Millisecond
	tr.DialCooldown = time.Hour
	tr.SetAddr(1, addr)
	if err := tr.Send(1, Envelope{}); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	start := time.Now()
	if err := tr.Send(1, Envelope{}); err == nil {
		t.Fatal("cooldown send succeeded")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cooldown send took %v (re-dialed instead of failing fast)", elapsed)
	}
	// A fresh address clears the cooldown.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	tr.SetAddr(1, ln2.Addr().String())
	if err := tr.Send(1, Envelope{}); err != nil {
		t.Fatalf("send after address refresh failed: %v", err)
	}
	tr.Close()
}
