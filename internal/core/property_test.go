package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Property tests on the search cascade over randomly generated
// networks: structural invariants that must hold for every topology,
// content placement and query.

// randomCase builds a random pure-asymmetric network with random
// content placement and returns it with a content checker.
func randomCase(seed uint64, nodes, degree int) (*testGraph, Content, *rng.Stream) {
	s := rng.New(seed)
	net := topology.NewNetwork(topology.PureAsymmetric, nodes, degree, 0)
	topology.RandomWire(net, degree, s.Intn)
	holders := map[topology.NodeID]bool{}
	for i := 0; i < nodes; i++ {
		if s.Bernoulli(0.2) {
			holders[topology.NodeID(i)] = true
		}
	}
	g := &testGraph{net: net, offline: map[topology.NodeID]bool{}}
	content := ContentFunc(func(id topology.NodeID, _ Key) bool { return holders[id] })
	return g, content, s
}

// Property: every result's hop count is within [1, TTL], the visited
// count never exceeds the network size, and FirstResultDelay is the
// minimum of the result delays.
func TestQuickCascadeStructuralInvariants(t *testing.T) {
	f := func(seed uint64, ttlRaw uint8) bool {
		const nodes = 40
		ttl := int(ttlRaw)%6 + 1
		g, content, _ := randomCase(seed, nodes, 4)
		c := &Cascade{Graph: g, Content: content, Forward: Flood{},
			Delay: func(_, _ topology.NodeID) float64 { return 0.05 }}
		o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: ttl}, nil)
		if o.Visited >= nodes {
			return false
		}
		minDelay := 0.0
		for i, r := range o.Results {
			if r.Hops < 1 || r.Hops > ttl {
				return false
			}
			if i == 0 || r.Delay < minDelay {
				minDelay = r.Delay
			}
		}
		if o.Hit() && o.FirstResultDelay != minDelay {
			return false
		}
		if !o.Hit() && o.FirstResultDelay != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising the TTL never loses hits (same seed, same network,
// ForwardWhenHit so truncation cannot interact).
func TestQuickCascadeTTLMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g, content, _ := randomCase(seed, 40, 4)
		c := &Cascade{Graph: g, Content: content, Forward: Flood{}}
		prev := 0
		for ttl := 1; ttl <= 5; ttl++ {
			o := c.RunScratch(&Query{ID: QueryID(ttl), Key: 1, Origin: 0, TTL: ttl, ForwardWhenHit: true}, nil)
			if len(o.Results) < prev {
				return false
			}
			prev = len(o.Results)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: stop-at-server truncation can only reduce traffic and
// never reduces the binary hit outcome.
func TestQuickStopAtServerSafe(t *testing.T) {
	f := func(seed uint64, ttlRaw uint8) bool {
		ttl := int(ttlRaw)%5 + 1
		g, content, _ := randomCase(seed, 40, 4)
		c := &Cascade{Graph: g, Content: content, Forward: Flood{}}
		stop := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: ttl}, nil)
		flood := c.RunScratch(&Query{ID: 2, Key: 1, Origin: 0, TTL: ttl, ForwardWhenHit: true}, nil)
		if stop.Messages > flood.Messages {
			return false
		}
		return stop.Hit() == flood.Hit()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: message count is bounded by edges times two directions —
// duplicate suppression guarantees each node forwards at most once, so
// each directed edge carries at most one copy of the query.
func TestQuickCascadeMessageBound(t *testing.T) {
	f := func(seed uint64, ttlRaw uint8) bool {
		ttl := int(ttlRaw)%8 + 1
		g, content, _ := randomCase(seed, 30, 3)
		c := &Cascade{Graph: g, Content: content, Forward: Flood{}}
		o := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: ttl, ForwardWhenHit: true}, nil)
		return o.Messages <= uint64(g.net.EdgeCount())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: DirectedBFT with K >= degree equals Flood on any network
// (selection of everything is flooding).
func TestQuickDirectedBFTDegeneratesToFlood(t *testing.T) {
	f := func(seed uint64) bool {
		g, content, _ := randomCase(seed, 30, 3)
		led := stats.NewLedger()
		ledger := func(topology.NodeID) *stats.Ledger { return led }
		flood := &Cascade{Graph: g, Content: content, Forward: Flood{}}
		directed := &Cascade{Graph: g, Content: content,
			Forward: DirectedBFT{K: 64, Benefit: stats.Cumulative{}}, Ledger: ledger}
		a := flood.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: 3}, nil)
		b := directed.RunScratch(&Query{ID: 2, Key: 1, Origin: 0, TTL: 3}, nil)
		return a.Messages == b.Messages && len(a.Results) == len(b.Results)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: exploration visits a superset of what a same-TTL search
// visits when the search finds nothing (identical propagation), and
// findings count equals visited nodes.
func TestQuickExploreCensusComplete(t *testing.T) {
	f := func(seed uint64, ttlRaw uint8) bool {
		ttl := int(ttlRaw)%4 + 1
		g, _, _ := randomCase(seed, 30, 3)
		none := ContentFunc(func(topology.NodeID, Key) bool { return false })
		c := &Cascade{Graph: g, Content: none, Forward: Flood{}}
		search := c.RunScratch(&Query{ID: 1, Key: 1, Origin: 0, TTL: ttl}, nil)
		explore := c.ExploreScratch(&Exploration{Keys: []Key{1}, Origin: 0, TTL: ttl}, nil)
		return len(explore.Findings) == search.Visited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
