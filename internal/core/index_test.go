package core

import (
	"testing"

	"repro/internal/topology"
)

// neighborIndex is an exact radius-1 index over the test graph: every
// node indexes its direct out-neighbors' content.
func neighborIndex(g *testGraph, content Content) IndexFunc {
	return func(at topology.NodeID, key Key) []topology.NodeID {
		var out []topology.NodeID
		for _, nb := range g.net.Out(at) {
			if g.Online(nb) && content.HasContent(nb, key) {
				out = append(out, nb)
			}
		}
		return out
	}
}

func TestIndexOriginAnswersWithZeroMessages(t *testing.T) {
	g := star(5)
	content := holders(3)
	c := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content)}
	// TTL 0: with the radius-1 index, the origin still covers its
	// direct neighbors without a single message.
	o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 0}, nil)
	if !o.Hit() || o.Results[0].Holder != 3 {
		t.Fatalf("outcome: %+v", o)
	}
	if o.Messages != 0 {
		t.Fatalf("index lookup cost %d messages", o.Messages)
	}
}

func TestIndexShortensEffectiveSearch(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3 with content at 3. Without an index, TTL 3
	// is needed; with a radius-1 index, TTL 2 suffices (node 2 answers
	// on behalf of 3).
	g := chain(4)
	content := holders(3)
	plain := &Cascade{Graph: g, Content: content, Forward: Flood{}}
	if o := plain.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2}, nil); o.Hit() {
		t.Fatal("plain TTL 2 should miss the 3-hop holder")
	}
	indexed := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content)}
	o := indexed.RunScratch(&Query{ID: 2, Key: 1, Origin: 0, TTL: 2}, nil)
	if !o.Hit() || o.Results[0].Holder != 3 {
		t.Fatalf("indexed TTL 2 outcome: %+v", o)
	}
	if o.Results[0].Hops != 3 {
		t.Fatalf("indexed result hops = %d, want 3 (2 flood + 1 index)", o.Results[0].Hops)
	}
}

func TestIndexDeduplicatesHolders(t *testing.T) {
	// Diamond: 0 -> {1, 2} -> 3; both 1 and 2 index holder 3. The
	// search must report 3 exactly once.
	net := topology.NewNetwork(topology.PureAsymmetric, 4, 4, 0)
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(1, 3)
	net.Connect(2, 3)
	g := &testGraph{net: net, offline: map[topology.NodeID]bool{}}
	content := holders(3)
	c := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content)}
	o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2, ForwardWhenHit: true}, nil)
	count := 0
	for _, r := range o.Results {
		if r.Holder == 3 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("holder 3 reported %d times: %+v", count, o.Results)
	}
}

func TestIndexDoesNotDoubleReportVisitedHolder(t *testing.T) {
	// 0 -> 1 -> 2, content at 1 and 2. The origin's index answers for
	// 1; the flood then visits 1, which must not produce a second
	// result for itself.
	g := chain(3)
	content := holders(1, 2)
	c := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content)}
	o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 2, ForwardWhenHit: true}, nil)
	seen := map[topology.NodeID]int{}
	for _, r := range o.Results {
		seen[r.Holder]++
	}
	if seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("holder counts: %v (results %+v)", seen, o.Results)
	}
}

func TestIndexStopsPropagationOnHit(t *testing.T) {
	// Stop-at-server semantics extend to index hits: a node whose index
	// answered does not forward (ForwardWhenHit false).
	g := chain(4)
	content := holders(2)
	c := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content)}
	o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 3}, nil)
	// Node 1's index answers for node 2; the query must not travel
	// further (1 message: 0->1).
	if !o.Hit() {
		t.Fatal("no hit")
	}
	if o.Messages != 1 {
		t.Fatalf("messages = %d, want 1", o.Messages)
	}
}

func TestIndexRespectsMaxResults(t *testing.T) {
	g := star(6)
	content := holders(1, 2, 3, 4, 5)
	c := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content)}
	o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 1, MaxResults: 2}, nil)
	if len(o.Results) != 2 {
		t.Fatalf("MaxResults violated: %+v", o.Results)
	}
	if o.Messages != 0 {
		t.Fatalf("index satisfied query still sent %d messages", o.Messages)
	}
}

func TestIndexFuncRadius(t *testing.T) {
	var f IndexFunc = func(topology.NodeID, Key) []topology.NodeID { return nil }
	if f.Radius() != 1 {
		t.Fatalf("IndexFunc radius = %d", f.Radius())
	}
}

func TestIndexDelayChargesExtraHop(t *testing.T) {
	g := chain(3) // 0 -> 1 -> 2, content at 2, indexed by 1
	content := holders(2)
	c := &Cascade{Graph: g, Content: content, Forward: Flood{},
		Index: neighborIndex(g, content),
		Delay: func(_, _ topology.NodeID) float64 { return 0.1 },
	}
	o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 1}, nil)
	if !o.Hit() {
		t.Fatal("no hit")
	}
	// Forward 0->1 (0.1) + reverse 1->0 (0.1) + index ping 1->2 (0.1).
	if d := o.Results[0].Delay; d < 0.299 || d > 0.301 {
		t.Fatalf("indexed result delay = %v, want 0.3", d)
	}
}
