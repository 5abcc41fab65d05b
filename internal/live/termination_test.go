package live

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// longWindow is a collection window no passing test waits out: a query
// that returns under it returned because its flood terminated.
const longWindow = 5 * time.Second

// hookTransport lets a test script the fabric: hook sees every message
// before it is delivered and returns false to take it out of the flow
// (to swallow it, or to deliver it later through inner).
type hookTransport struct {
	inner *ChanTransport
	hook  func(to topology.NodeID, env Envelope) bool
}

func (h *hookTransport) Send(to topology.NodeID, env Envelope) error {
	if h.hook != nil && !h.hook(to, env) {
		return nil
	}
	return h.inner.Send(to, env)
}

// hookCluster is cluster() over a hookTransport, with the given
// undirected edges wired and holders seeded with key 7.
func hookCluster(t *testing.T, n, ttl int, edges [][2]int, holders ...int) ([]*Node, *hookTransport) {
	t.Helper()
	tr := &hookTransport{inner: NewChanTransport()}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			ID: topology.NodeID(i), Neighbors: n, TTL: ttl,
			Transport: tr, Store: MapStore{}, Class: netsim.Cable,
			Stats: &NodeStats{},
		})
		tr.inner.Attach(nodes[i])
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for _, e := range edges {
		link(nodes[e[0]], nodes[e[1]])
	}
	for _, h := range holders {
		nodes[h].cfg.Store.(MapStore).Add(7)
	}
	return nodes, tr
}

// holdersOf returns the sorted holder IDs of a hit list.
func holdersOf(hits []SearchHit) []int {
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = int(h.Holder)
	}
	sort.Ints(out)
	return out
}

// wantExact runs key 7 from origin under longWindow and requires the
// exact holder set, protocol completion and a return far inside the
// window.
func wantExact(t *testing.T, origin *Node, want ...int) QueryInfo {
	t.Helper()
	start := time.Now()
	hits, info := origin.QueryInfo(QueryOpts{Key: 7, Timeout: longWindow})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("query took %v: it ended on the window, not on termination", elapsed)
	}
	if !info.Complete || info.Lost || info.Expired || info.Stopped {
		t.Fatalf("info = %+v, want Complete only", info)
	}
	if got := holdersOf(hits); !slices.Equal(got, want) {
		t.Fatalf("holders %v, want %v", got, want)
	}
	return info
}

func TestTerminationLine(t *testing.T) {
	// 0-1-2-3-4, TTL 3: node 3 answers, node 4 lies behind it and
	// beyond the TTL either way.
	nodes, _ := hookCluster(t, 5, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 3, 4)
	wantExact(t, nodes[0], 3)
}

func TestTerminationTTLCut(t *testing.T) {
	// The only holder is four hops out: an exact, fast miss.
	nodes, _ := hookCluster(t, 5, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 4)
	wantExact(t, nodes[0])
}

func TestTerminationRing(t *testing.T) {
	// An 8-ring floods both ways round and meets itself at node 4, which
	// answers the first copy and acks the second as a duplicate. With node
	// 2 holding the key too, that side stops there (a holder does not
	// forward) and node 4 is reached the other way round only.
	var edges [][2]int
	for i := 0; i < 8; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 8})
	}
	nodes, _ := hookCluster(t, 8, 4, edges, 4)
	wantExact(t, nodes[0], 4)
	nodes[2].cfg.Store.(MapStore).Add(7)
	wantExact(t, nodes[0], 2, 4)
}

func TestTerminationStar(t *testing.T) {
	// The hub asks 40 leaves at once; 20 of them hold the key.
	var edges [][2]int
	var holders, want []int
	for i := 1; i <= 40; i++ {
		edges = append(edges, [2]int{0, i})
		if i%2 == 0 {
			holders = append(holders, i)
			want = append(want, i)
		}
	}
	nodes, _ := hookCluster(t, 41, 2, edges, holders...)
	if info := wantExact(t, nodes[0], want...); info.Fanout != 40 {
		t.Fatalf("fanout %d, want 40", info.Fanout)
	}
	// A leaf reaches the other holders through the hub.
	wantExact(t, nodes[1], want...)
}

func TestTerminationFanoutZero(t *testing.T) {
	nodes, _ := hookCluster(t, 1, 3, nil)
	if info := wantExact(t, nodes[0]); info.Fanout != 0 {
		t.Fatalf("fanout %d, want 0", info.Fanout)
	}
}

func TestTerminationMissIsFast(t *testing.T) {
	var edges [][2]int
	for i := 0; i < 12; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 12}, [2]int{i, (i + 5) % 12})
	}
	nodes, _ := hookCluster(t, 12, 3, edges)
	search(nodes[0], 7, longWindow) // warm the collector pool
	start := time.Now()
	hits, info := nodes[0].QueryInfo(QueryOpts{Key: 7, Timeout: longWindow})
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("miss took %v under a %v window, want < 10ms", elapsed, longWindow)
	}
	if len(hits) != 0 || !info.Complete {
		t.Fatalf("hits %v info %+v, want a complete miss", hits, info)
	}
	st := nodes[0].cfg.Stats
	if st.QueriesComplete.Load() != 2 || st.QueriesWindowFallback.Load() != 0 {
		t.Fatalf("complete %d fallback %d, want 2 and 0",
			st.QueriesComplete.Load(), st.QueriesWindowFallback.Load())
	}
}

// TestTerminationLateShorterCopyAtTTLEdge forces the race first-copy-wins
// loses: relay 3 first hears of the query over the long route 0-1-2-3,
// at the TTL edge, and only then over the short route 0-3. The late
// copy must be acted on, or holder 4 (two hops out) is never asked.
func TestTerminationLateShorterCopyAtTTLEdge(t *testing.T) {
	nodes, tr := hookCluster(t, 5, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}}, 4)
	var mu sync.Mutex
	var held []Envelope
	tr.hook = func(to topology.NodeID, env Envelope) bool {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case env.Type == MsgQuery && env.From == 0 && to == 3:
			held = append(held, env) // the short route waits
			return false
		case env.Type == MsgAck && env.From == 3 && to == 2:
			// Relay 3 has answered the long-route copy (TTL reached, so at
			// once): now the short route may deliver.
			for _, h := range held {
				go tr.inner.Send(3, h)
			}
			held = nil
		}
		return true
	}
	wantExact(t, nodes[0], 4)
}

// TestTerminationLateShorterCopyReforwards is the same race one hop
// earlier: relay 2 has already forwarded for the long-route copy (which
// runs out of hops at node 3) when the short-route copy arrives. It must
// forward again, and the one activation record must answer both senders.
func TestTerminationLateShorterCopyReforwards(t *testing.T) {
	// Long route 0-1-2 (hops 2), short route 0-2 (hops 1); behind relay 2
	// the chain 2-3-4 ends in the holder.
	nodes, tr := hookCluster(t, 5, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}, 4)
	var mu sync.Mutex
	var held []Envelope
	tr.hook = func(to topology.NodeID, env Envelope) bool {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case env.Type == MsgQuery && env.From == 0 && to == 2:
			held = append(held, env)
			return false
		case env.Type == MsgQuery && env.From == 2 && to == 3 && held != nil:
			// Relay 2 is forwarding for the long-route copy: release the
			// short one behind it.
			for _, h := range held {
				go tr.inner.Send(2, h)
			}
			held = nil
		}
		return true
	}
	wantExact(t, nodes[0], 4)
}

// TestTerminationSwallowedAck: an ack that never arrives leaves the
// flood's end unknown; the query ends on its window and says so.
func TestTerminationSwallowedAck(t *testing.T) {
	nodes, tr := hookCluster(t, 3, 3, [][2]int{{0, 1}, {1, 2}}, 2)
	tr.hook = func(to topology.NodeID, env Envelope) bool {
		return !(env.Type == MsgAck && to == 0)
	}
	start := time.Now()
	hits, info := nodes[0].QueryInfo(QueryOpts{Key: 7, Timeout: 150 * time.Millisecond})
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("returned after %v, before the window", elapsed)
	}
	if info.Complete || !info.Expired {
		t.Fatalf("info = %+v, want Expired and not Complete", info)
	}
	if got := holdersOf(hits); len(got) != 1 || got[0] != 2 {
		t.Fatalf("holders %v, want [2] (hits do not depend on acks)", got)
	}
	if nodes[0].cfg.Stats.QueriesWindowFallback.Load() != 1 {
		t.Fatal("window fallback not counted")
	}
}

// TestTerminationLostCopy: a copy the transport refuses is a lost
// subtree — the flood still terminates, and says what it missed.
func TestTerminationLostCopy(t *testing.T) {
	nodes, tr := hookCluster(t, 4, 3, [][2]int{{0, 1}, {1, 2}, {0, 3}}, 2, 3)
	tr.inner.Unregister(2) // relay 1 cannot reach node 2 any more
	start := time.Now()
	hits, info := nodes[0].QueryInfo(QueryOpts{Key: 7, Timeout: longWindow})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("query took %v: a lost copy must not cost the window", elapsed)
	}
	if !info.Complete || !info.Lost {
		t.Fatalf("info = %+v, want Complete and Lost", info)
	}
	if got := holdersOf(hits); len(got) != 1 || got[0] != 3 {
		t.Fatalf("holders %v, want [3]", got)
	}
}

// TestTerminationMarkWaitsForHits: on a transport that lets the ack
// chain overtake a hit (TCP has one connection per peer pair), the
// origin must hold completion until the hits the acks announced are in.
func TestTerminationMarkWaitsForHits(t *testing.T) {
	nodes, tr := hookCluster(t, 3, 3, [][2]int{{0, 1}, {1, 2}}, 2)
	tr.hook = func(to topology.NodeID, env Envelope) bool {
		if env.Type == MsgHit {
			go func() {
				time.Sleep(50 * time.Millisecond)
				tr.inner.Send(to, env)
			}()
			return false
		}
		return true
	}
	start := time.Now()
	wantExact(t, nodes[0], 2)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("completed after %v, before the delayed hit could arrive", elapsed)
	}
}

// TestAckMatchedByIdentity: duplicated, stale and foreign acks must not
// finish a flood; only the ack of the very copy still awaited does.
func TestAckMatchedByIdentity(t *testing.T) {
	nodes, tr := hookCluster(t, 3, 3, [][2]int{{0, 1}, {0, 2}})
	var mu sync.Mutex
	var acks []Envelope
	tr.hook = func(to topology.NodeID, env Envelope) bool {
		if env.Type == MsgAck && to == 0 {
			mu.Lock()
			acks = append(acks, env)
			mu.Unlock()
			return false // the test plays the acks itself
		}
		return true
	}
	type result struct {
		hits []SearchHit
		info QueryInfo
	}
	done := make(chan result, 1)
	go func() {
		hits, info := nodes[0].QueryInfo(QueryOpts{Key: 7, Timeout: longWindow})
		done <- result{hits, info}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(acks)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d of 2 first-hop acks", n)
		}
		time.Sleep(time.Millisecond)
	}
	first := acks[0]
	wrongQuery, wrongSlot, wrongSeq := first, first, first
	wrongQuery.QueryID++
	wrongSlot.Slot += 7
	wrongSeq.Seq = 63
	for _, env := range []Envelope{first, first, first, wrongQuery, wrongSlot, wrongSeq} {
		tr.inner.Send(0, env)
	}
	select {
	case r := <-done:
		t.Fatalf("one of two acks, repeated, completed the query: %+v", r.info)
	case <-time.After(100 * time.Millisecond):
	}
	tr.inner.Send(0, acks[1])
	select {
	case r := <-done:
		if !r.info.Complete || len(r.hits) != 0 {
			t.Fatalf("after both acks: hits %v info %+v", r.hits, r.info)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("both acks in, query still open")
	}
	// The query is retired: its acks now match nothing and change nothing.
	tr.hook = nil
	tr.inner.Send(0, acks[1])
	wantExact(t, nodes[0])
}

func TestSeenSetRemembersExactlyTheLastCap(t *testing.T) {
	s := newSeenSet()
	const total = 3*seenCap + 17
	for i := 1; i <= total; i++ {
		e, dup := s.visit(core.QueryID(i) << 20)
		if dup {
			t.Fatalf("query %d reported as seen on first visit", i)
		}
		e.hops = uint8(i)
	}
	for i := total - seenCap + 1; i <= total; i++ {
		e, dup := s.visit(core.QueryID(i) << 20)
		if !dup || e.hops != uint8(i) {
			t.Fatalf("query %d (one of the last %d): dup=%v hops=%d", i, seenCap, dup, e.hops)
		}
	}
	used := 0
	for _, v := range s.index {
		if v != 0 {
			used++
		}
	}
	if used != seenCap {
		t.Fatalf("index holds %d slots for %d entries", used, seenCap)
	}
	if _, dup := s.visit(core.QueryID(total-seenCap) << 20); dup {
		t.Fatal("the evicted query is still remembered")
	}
}

func TestActTableRecyclesAndGrows(t *testing.T) {
	var tab actTable
	a := tab.alloc(1)
	tab.recs[a].waiting = 1
	b := tab.alloc(2)
	tab.recs[b].waiting = 1
	if a == b || len(tab.recs) != 2 {
		t.Fatalf("two live records share a slot: %d %d", a, b)
	}
	if tab.live(a, 1) == nil || tab.live(a, 2) != nil {
		t.Fatal("live does not match by query")
	}
	tab.release(a)
	if tab.live(a, 1) != nil {
		t.Fatal("released record still live")
	}
	if c := tab.alloc(3); c != a || len(tab.recs) != 2 {
		t.Fatalf("freed slot %d not reused (got %d, table %d)", a, c, len(tab.recs))
	}
}
