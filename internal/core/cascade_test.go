package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// testGraph adapts a topology.Network plus an online set to core.Graph.
type testGraph struct {
	net     *topology.Network
	offline map[topology.NodeID]bool
}

func (g *testGraph) Out(id topology.NodeID) []topology.NodeID { return g.net.Out(id) }
func (g *testGraph) Online(id topology.NodeID) bool           { return !g.offline[id] }

// chain builds 0 -> 1 -> 2 -> ... -> n-1 (asymmetric, so propagation is
// strictly forward).
func chain(n int) *testGraph {
	net := topology.NewNetwork(topology.PureAsymmetric, n, 4, 0)
	for i := 0; i < n-1; i++ {
		net.Connect(topology.NodeID(i), topology.NodeID(i+1))
	}
	return &testGraph{net: net, offline: map[topology.NodeID]bool{}}
}

// star builds 0 -> {1..n-1}.
func star(n int) *testGraph {
	net := topology.NewNetwork(topology.PureAsymmetric, n, n, 0)
	for i := 1; i < n; i++ {
		net.Connect(0, topology.NodeID(i))
	}
	return &testGraph{net: net, offline: map[topology.NodeID]bool{}}
}

func holders(ids ...topology.NodeID) Content {
	set := map[topology.NodeID]bool{}
	for _, id := range ids {
		set[id] = true
	}
	return ContentFunc(func(id topology.NodeID, _ Key) bool { return set[id] })
}

func TestCascadeFindsDirectNeighbor(t *testing.T) {
	g := star(5)
	c := &Cascade{Graph: g, Content: holders(3), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 42, Origin: 0, TTL: 1})
	if !o.Hit() || len(o.Results) != 1 || o.Results[0].Holder != 3 {
		t.Fatalf("outcome: %+v", o)
	}
	if o.Results[0].Hops != 1 {
		t.Fatalf("hops = %d", o.Results[0].Hops)
	}
	if o.Messages != 4 {
		t.Fatalf("messages = %d, want 4 (one per neighbor)", o.Messages)
	}
	if o.Visited != 4 {
		t.Fatalf("visited = %d", o.Visited)
	}
}

func TestCascadeTTLBoundsDepth(t *testing.T) {
	g := chain(6)
	c := &Cascade{Graph: g, Content: holders(4), Forward: Flood{}}
	// Holder at distance 4; TTL 3 must miss it.
	if o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 3}); o.Hit() {
		t.Fatal("TTL 3 reached distance-4 holder")
	}
	if o := c.Run(&Query{ID: 2, Key: 1, Origin: 0, TTL: 4}); !o.Hit() {
		t.Fatal("TTL 4 missed distance-4 holder")
	}
}

func TestCascadeTTLZeroSendsNothing(t *testing.T) {
	g := star(3)
	c := &Cascade{Graph: g, Content: holders(1), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 0})
	// TTL 0: the origin forwards (hop 1 arrivals exceed TTL... the
	// paper's TTL counts hops; TTL 0 means no propagation at all).
	if o.Hit() || o.Visited != 0 {
		t.Fatalf("TTL 0 outcome: %+v", o)
	}
}

func TestCascadeStopsAtServingNode(t *testing.T) {
	// 0 -> 1 -> 2, both 1 and 2 hold the key. With ForwardWhenHit
	// false, node 1 serves and does not forward; node 2 is never
	// reached.
	g := chain(3)
	c := &Cascade{Graph: g, Content: holders(1, 2), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 5})
	if len(o.Results) != 1 || o.Results[0].Holder != 1 {
		t.Fatalf("results: %+v", o.Results)
	}
	if o.Messages != 1 {
		t.Fatalf("messages = %d, want 1", o.Messages)
	}
}

func TestCascadeForwardWhenHit(t *testing.T) {
	g := chain(3)
	c := &Cascade{Graph: g, Content: holders(1, 2), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 5, ForwardWhenHit: true})
	if len(o.Results) != 2 {
		t.Fatalf("results: %+v", o.Results)
	}
}

func TestCascadeMaxResults(t *testing.T) {
	g := star(10)
	c := &Cascade{Graph: g, Content: holders(1, 2, 3, 4, 5, 6, 7, 8, 9), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 1, MaxResults: 3})
	if len(o.Results) != 3 {
		t.Fatalf("MaxResults violated: %d results", len(o.Results))
	}
}

func TestCascadeDuplicateSuppression(t *testing.T) {
	// Diamond: 0 -> {1, 2} -> 3. Node 3 receives the query twice but
	// must process it once; both transmissions count as messages.
	net := topology.NewNetwork(topology.PureAsymmetric, 4, 4, 0)
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(1, 3)
	net.Connect(2, 3)
	g := &testGraph{net: net, offline: map[topology.NodeID]bool{}}
	c := &Cascade{Graph: g, Content: holders(3), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2})
	if len(o.Results) != 1 {
		t.Fatalf("duplicate processing: %d results", len(o.Results))
	}
	if o.Messages != 4 {
		t.Fatalf("messages = %d, want 4 (both copies count)", o.Messages)
	}
	if o.Visited != 3 {
		t.Fatalf("visited = %d, want 3", o.Visited)
	}
}

func TestCascadeSkipsOfflineNodes(t *testing.T) {
	g := chain(3)
	g.offline[1] = true
	c := &Cascade{Graph: g, Content: holders(2), Forward: Flood{}}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 5})
	if o.Hit() {
		t.Fatal("query passed through an off-line node")
	}
	if o.Messages != 1 {
		t.Fatalf("messages = %d (the send still happens)", o.Messages)
	}
	if o.Visited != 0 {
		t.Fatalf("visited = %d", o.Visited)
	}
}

func TestCascadeDelayAccumulatesForwardAndReverse(t *testing.T) {
	g := chain(3)
	c := &Cascade{
		Graph: g, Content: holders(2), Forward: Flood{},
		Delay: func(_, _ topology.NodeID) float64 { return 0.1 },
	}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2})
	if !o.Hit() {
		t.Fatal("no hit")
	}
	// Forward 2 hops (0.2) + reverse 2 hops (0.2).
	if d := o.Results[0].Delay; d < 0.399 || d > 0.401 {
		t.Fatalf("delay = %v, want 0.4", d)
	}
	if o.FirstResultDelay != o.Results[0].Delay {
		t.Fatal("FirstResultDelay mismatch")
	}
	if o.ReplyMessages != 2 {
		t.Fatalf("reply messages = %d, want 2", o.ReplyMessages)
	}
}

func TestCascadeFirstResultDelayIsMinimum(t *testing.T) {
	// Star where two leaves hold the key at different delays.
	net := topology.NewNetwork(topology.PureAsymmetric, 3, 4, 0)
	net.Connect(0, 1)
	net.Connect(0, 2)
	g := &testGraph{net: net, offline: map[topology.NodeID]bool{}}
	delays := map[topology.NodeID]float64{1: 0.5, 2: 0.1}
	c := &Cascade{
		Graph: g, Content: holders(1, 2), Forward: Flood{},
		Delay: func(_, to topology.NodeID) float64 {
			if d, ok := delays[to]; ok {
				return d
			}
			return delays[2] // reverse hops toward origin reuse leaf delay
		},
	}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 1})
	if len(o.Results) != 2 {
		t.Fatalf("results: %+v", o.Results)
	}
	if o.FirstResultDelay > o.Results[0].Delay && o.FirstResultDelay > o.Results[1].Delay {
		t.Fatal("FirstResultDelay is not the minimum")
	}
}

func TestCascadeMetersMessages(t *testing.T) {
	g := star(4)
	sent := 0
	c := &Cascade{
		Graph: g, Content: holders(2), Forward: Flood{},
		OnMessage: func(_, _ topology.NodeID) { sent++ },
	}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 1})
	if uint64(sent) != o.Messages {
		t.Fatalf("OnMessage count %d != Messages %d", sent, o.Messages)
	}
	// Every reply walks the reverse route: one hop per forward hop.
	hops := 0
	for _, r := range o.Results {
		hops += r.Hops
	}
	if uint64(hops) != o.ReplyMessages {
		t.Fatalf("results cover %d reply hops, ReplyMessages %d", hops, o.ReplyMessages)
	}
}

func TestCascadePanicsOnInvalidQuery(t *testing.T) {
	g := star(2)
	c := &Cascade{Graph: g, Content: holders(), Forward: Flood{}}
	defer func() {
		if recover() == nil {
			t.Fatal("negative TTL did not panic")
		}
	}()
	c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: -1})
}

func TestCascadePanicsOnMissingPieces(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete cascade did not panic")
		}
	}()
	(&Cascade{}).Run(&Query{TTL: 1})
}

func TestQueryValidate(t *testing.T) {
	if err := (&Query{TTL: 1}).Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if err := (&Query{TTL: -1}).Validate(); err == nil {
		t.Fatal("negative TTL accepted")
	}
	if err := (&Query{MaxResults: -1}).Validate(); err == nil {
		t.Fatal("negative MaxResults accepted")
	}
}

func TestIterativeDeepeningStopsEarly(t *testing.T) {
	g := chain(6)
	c := &Cascade{Graph: g, Content: holders(2), Forward: Flood{}}
	d := IterativeDeepening{Depths: []int{1, 2, 4}}
	o := d.Run(c, &Query{ID: 1, Key: 1, Origin: 0})
	if !o.Hit() {
		t.Fatal("deepening missed the holder")
	}
	// Depth 1 fails (1 msg), depth 2 succeeds (2 msgs) => 3 total;
	// depth 4 never runs.
	if o.Messages != 3 {
		t.Fatalf("messages = %d, want 3", o.Messages)
	}
}

func TestIterativeDeepeningExhaustsSchedule(t *testing.T) {
	g := chain(6)
	c := &Cascade{Graph: g, Content: holders(5), Forward: Flood{}}
	d := IterativeDeepening{Depths: []int{1, 2}}
	o := d.Run(c, &Query{ID: 1, Key: 1, Origin: 0})
	if o.Hit() {
		t.Fatal("holder at distance 5 found with max depth 2")
	}
	if o.Messages != 3 {
		t.Fatalf("messages = %d, want 1+2", o.Messages)
	}
}

func TestIterativeDeepeningCycleTimeout(t *testing.T) {
	g := chain(4)
	c := &Cascade{Graph: g, Content: holders(2), Forward: Flood{}}
	d := IterativeDeepening{Depths: []int{1, 2}, CycleTimeout: 1.5}
	o := d.Run(c, &Query{ID: 1, Key: 1, Origin: 0})
	if o.FirstResultDelay != 1.5 {
		t.Fatalf("first-result delay = %v, want 1.5 (one failed cycle)", o.FirstResultDelay)
	}
}

func TestIterativeDeepeningPanicsOnBadSchedule(t *testing.T) {
	g := chain(2)
	c := &Cascade{Graph: g, Content: holders(), Forward: Flood{}}
	for name, depths := range map[string][]int{
		"empty":          {},
		"non-increasing": {2, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s schedule did not panic", name)
				}
			}()
			IterativeDeepening{Depths: depths}.Run(c, &Query{ID: 1, Origin: 0})
		}()
	}
}

func TestDirectedBFTUsedInsideCascade(t *testing.T) {
	// Node 0 has neighbors 1 and 2; its ledger strongly favors 2. A
	// directed BFT with K=1 must reach only node 2's branch.
	net := topology.NewNetwork(topology.PureAsymmetric, 5, 4, 0)
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(1, 3)
	net.Connect(2, 4)
	g := &testGraph{net: net, offline: map[topology.NodeID]bool{}}
	led := stats.NewLedger()
	led.Touch(2).Benefit = 100
	c := &Cascade{
		Graph: g, Content: holders(4), Forward: DirectedBFT{K: 1, Benefit: stats.Cumulative{}},
		Ledger: func(id topology.NodeID) *stats.Ledger {
			if id == 0 {
				return led
			}
			return nil
		},
	}
	o := c.Run(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2})
	if !o.Hit() || o.Results[0].Holder != 4 {
		t.Fatalf("directed BFT outcome: %+v", o)
	}
	if o.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (0->2->4)", o.Messages)
	}
}
