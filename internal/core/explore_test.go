package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

func TestExploreCensusesNeighborhood(t *testing.T) {
	g := chain(4) // 0 -> 1 -> 2 -> 3
	content := ContentFunc(func(id topology.NodeID, k Key) bool {
		return id == 2 && k == 7
	})
	c := &Cascade{Graph: g, Content: content, Forward: Flood{}}
	o := c.ExploreScratch(&Exploration{Keys: []Key{7, 8}, Origin: 0, TTL: 2}, nil)
	if len(o.Findings) != 2 {
		t.Fatalf("findings: %+v", o.Findings)
	}
	// Node 1 holds nothing, node 2 holds key 7.
	byNode := map[topology.NodeID][]Key{}
	for _, f := range o.Findings {
		byNode[f.Node] = f.Held
	}
	if len(byNode[1]) != 0 {
		t.Fatalf("node 1 held %v", byNode[1])
	}
	if len(byNode[2]) != 1 || byNode[2][0] != 7 {
		t.Fatalf("node 2 held %v", byNode[2])
	}
}

func TestExploreDoesNotStopAtHolders(t *testing.T) {
	// Unlike search, exploration passes through nodes that hold keys.
	g := chain(4)
	content := ContentFunc(func(id topology.NodeID, k Key) bool { return true })
	c := &Cascade{Graph: g, Content: content, Forward: Flood{}}
	o := c.ExploreScratch(&Exploration{Keys: []Key{1}, Origin: 0, TTL: 3}, nil)
	if len(o.Findings) != 3 {
		t.Fatalf("exploration stopped early: %d findings", len(o.Findings))
	}
}

func TestExploreHolders(t *testing.T) {
	g := star(5)
	content := ContentFunc(func(id topology.NodeID, k Key) bool {
		return (id == 2 || id == 4) && k == 9
	})
	c := &Cascade{Graph: g, Content: content, Forward: Flood{}}
	o := c.ExploreScratch(&Exploration{Keys: []Key{9}, Origin: 0, TTL: 1}, nil)
	var h []topology.NodeID
	for _, f := range o.Findings {
		if len(f.Held) > 0 {
			h = append(h, f.Node)
		}
	}
	if len(h) != 2 || h[0] != 2 || h[1] != 4 {
		t.Fatalf("holders: %v, want [2 4]", h)
	}
}

func TestExploreTTLZero(t *testing.T) {
	g := star(3)
	c := &Cascade{Graph: g, Content: holders(1), Forward: Flood{}}
	o := c.ExploreScratch(&Exploration{Keys: []Key{1}, Origin: 0, TTL: 0}, nil)
	if len(o.Findings) != 0 || o.Messages != 0 {
		t.Fatalf("TTL 0 exploration did work: %+v", o)
	}
}

func TestExploreNegativeTTLPanics(t *testing.T) {
	g := star(2)
	c := &Cascade{Graph: g, Content: holders(), Forward: Flood{}}
	defer func() {
		if recover() == nil {
			t.Fatal("negative TTL did not panic")
		}
	}()
	c.ExploreScratch(&Exploration{Origin: 0, TTL: -1}, nil)
}

func TestExploreCountsMessages(t *testing.T) {
	g := star(4)
	var metered int
	c := &Cascade{
		Graph: g, Content: holders(), Forward: Flood{},
		OnMessage: func(_, _ topology.NodeID) { metered++ },
	}
	o := c.ExploreScratch(&Exploration{Keys: []Key{1}, Origin: 0, TTL: 1}, nil)
	if o.Messages != 3 || metered != 3 {
		t.Fatalf("messages = %d, metered = %d", o.Messages, metered)
	}
	// Reports travel back one hop each.
	if o.ReplyMessages != 3 {
		t.Fatalf("reply messages = %d", o.ReplyMessages)
	}
}

func TestExploreDelays(t *testing.T) {
	g := chain(3)
	c := &Cascade{
		Graph: g, Content: holders(), Forward: Flood{},
		Delay: func(_, _ topology.NodeID) float64 { return 0.1 },
	}
	o := c.ExploreScratch(&Exploration{Keys: []Key{1}, Origin: 0, TTL: 2}, nil)
	for _, f := range o.Findings {
		want := 0.2 * float64(f.Hops) // forward + reverse
		if f.Delay < want-1e-9 || f.Delay > want+1e-9 {
			t.Fatalf("node %d delay %v, want %v", f.Node, f.Delay, want)
		}
	}
}

func TestExploreSkipsOffline(t *testing.T) {
	g := star(4)
	g.offline[2] = true
	c := &Cascade{Graph: g, Content: holders(), Forward: Flood{}}
	o := c.ExploreScratch(&Exploration{Keys: []Key{1}, Origin: 0, TTL: 1}, nil)
	if len(o.Findings) != 2 {
		t.Fatalf("findings: %+v", o.Findings)
	}
	for _, f := range o.Findings {
		if f.Node == 2 {
			t.Fatal("offline node reported")
		}
	}
}

func TestRecordFindings(t *testing.T) {
	led := stats.NewLedger()
	o := &ExploreOutcome{Findings: []Finding{
		{Node: 1, Held: []Key{5, 6}, Hops: 1, Delay: 0.2},
		{Node: 2, Held: nil, Hops: 2, Delay: 0.5},
	}}
	RecordFindings(led, o, 100, func(id topology.NodeID) float64 { return 2 })
	r1 := led.Get(1)
	if r1 == nil || r1.Hits != 1 || r1.Results != 2 || r1.Benefit != 4 {
		t.Fatalf("record 1: %+v", r1)
	}
	if r1.Replies != 1 || r1.LatencySum != 0.2 || r1.LastSeen != 100 {
		t.Fatalf("record 1 bookkeeping: %+v", r1)
	}
	r2 := led.Get(2)
	if r2 == nil || r2.Hits != 0 || r2.Benefit != 0 || r2.Replies != 1 {
		t.Fatalf("record 2: %+v", r2)
	}
}

func TestRecordFindingsNilWeight(t *testing.T) {
	led := stats.NewLedger()
	o := &ExploreOutcome{Findings: []Finding{{Node: 1, Held: []Key{5}}}}
	RecordFindings(led, o, 0, nil)
	if led.Get(1).Benefit != 0 {
		t.Fatal("nil weight must not add benefit")
	}
	if led.Get(1).Hits != 1 {
		t.Fatal("hits must still accumulate")
	}
}
