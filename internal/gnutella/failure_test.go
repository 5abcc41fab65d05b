package gnutella

import (
	"testing"

	"repro/internal/topology"
)

// Failure injection: configurations that stress the reconfiguration
// machinery far beyond the paper's operating point must neither panic
// nor corrupt the network invariant.

func TestChurnStormKeepsNetworkConsistent(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	// Sessions of ~3 minutes instead of 3 hours: each user logs in and
	// out ~60x more often, so login wiring, logoff isolation and
	// eviction interleave constantly.
	c.Churn.MeanOnline = 180
	c.Churn.MeanOffline = 180
	s := New(c)
	m := s.Run()
	if !s.Network().Consistent() {
		t.Fatal("network inconsistent after churn storm")
	}
	if m.LoginCount < 1000 {
		t.Fatalf("storm produced only %d logins", m.LoginCount)
	}
	for i := 0; i < c.Music.Users; i++ {
		id := topology.NodeID(i)
		out, in := s.Network().Node(id).Out.Len(), s.Network().Node(id).In.Len()
		if out > c.Neighbors || in > c.Neighbors {
			t.Fatalf("node %d degree (%d,%d) exceeds cap", i, out, in)
		}
		if !s.sess.IsOnline(id) && (out != 0 || in != 0) {
			t.Fatalf("offline node %d still wired", i)
		}
	}
}

func TestHyperactiveReconfiguration(t *testing.T) {
	// θ=1 with unlimited swaps: every request rewires as much as it
	// can. The run must stay consistent and still outperform no
	// neighbors at all.
	c := tinyConfig(Dynamic, 2)
	c.ReconfigThreshold = 1
	c.MaxSwaps = 0 // unlimited
	s := New(c)
	m := s.Run()
	if !s.Network().Consistent() {
		t.Fatal("network inconsistent under hyperactive reconfiguration")
	}
	if m.Hits.Total() == 0 {
		t.Fatal("hyperactive reconfiguration killed all hits")
	}
}

func TestSingleNeighborCapacity(t *testing.T) {
	// Degenerate capacity: the network is a partial matching; searches
	// and reconfigurations must still work.
	c := tinyConfig(Dynamic, 2)
	c.Neighbors = 1
	s := New(c)
	m := s.Run()
	if !s.Network().Consistent() {
		t.Fatal("inconsistent with capacity 1")
	}
	if m.Queries.Total() == 0 {
		t.Fatal("no queries with capacity 1")
	}
}

func TestVeryShortRun(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.DurationHours = 1
	m := New(c).Run()
	if m.Queries.Total() == 0 {
		t.Fatal("one-hour run issued no queries")
	}
}

func TestHighTTLDoesNotExplode(t *testing.T) {
	// TTL far beyond the network diameter: duplicate suppression must
	// bound the cascade.
	c := tinyConfig(Static, 10)
	c.DurationHours = 2
	m := New(c).Run()
	perQuery := float64(m.Meter.Total(0)) / m.Queries.Total()
	// With 100 users (~50 online), a query can visit each node at most
	// once but may traverse each edge in both directions.
	if perQuery > 500 {
		t.Fatalf("%.0f messages per query: duplicate suppression broken", perQuery)
	}
}
