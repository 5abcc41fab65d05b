package peerolap

import (
	"testing"

	"repro/internal/workload"
)

// tinyConfig runs in well under a second.
func tinyConfig(mode Mode) Config {
	c := DefaultConfig(mode)
	// 60 peers with a TTL-2 reach of ~16 keeps the searched fraction
	// small enough that neighbor choice matters.
	c.Olap = workload.OlapConfig{
		Chunks:             4800,
		Regions:            12,
		PopularityTheta:    0.9,
		Peers:              60,
		LocalFraction:      0.8,
		ChunksPerQueryMean: 4,
		QueriesPerHour:     30,
	}
	c.CacheChunks = 150
	c.DurationHours = 16
	return c
}

func TestModeString(t *testing.T) {
	if Static.String() == "" || Dynamic.String() == "" || Static.String() == Dynamic.String() {
		t.Fatal("mode names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(Dynamic).Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"zero neighbors":       func(c *Config) { c.Neighbors = 0 },
		"zero cache":           func(c *Config) { c.CacheChunks = 0 },
		"zero TTL":             func(c *Config) { c.SearchTTL = 0 },
		"zero threshold":       func(c *Config) { c.ReconfigThreshold = 0 },
		"zero warehouse cost":  func(c *Config) { c.WarehouseCostMean = 0 },
		"peer above warehouse": func(c *Config) { c.PeerCostMean = c.WarehouseCostMean },
		"zero duration":        func(c *Config) { c.DurationHours = 0 },
	} {
		c := DefaultConfig(Dynamic)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestChunksPartitionIntoOutcomes(t *testing.T) {
	m := New(tinyConfig(Dynamic)).Run()
	req := m.ChunkRequests.Total()
	if req == 0 {
		t.Fatal("no chunk requests")
	}
	sum := m.LocalChunks.Total() + m.PeerChunks.Total() + m.WarehouseChunks.Total()
	if sum != req {
		t.Fatalf("outcomes %v do not partition chunk requests %v", sum, req)
	}
	if m.QueryCost.N() != uint64(m.Queries.Total()) {
		t.Fatalf("cost observations %d != queries %v", m.QueryCost.N(), m.Queries.Total())
	}
}

func TestDynamicReconfigures(t *testing.T) {
	m := New(tinyConfig(Dynamic)).Run()
	if m.Reconfigurations == 0 {
		t.Fatal("dynamic PeerOlap never reconfigured")
	}
}

func TestStaticDoesNotReconfigure(t *testing.T) {
	m := New(tinyConfig(Static)).Run()
	if m.Reconfigurations != 0 {
		t.Fatal("static PeerOlap reconfigured")
	}
}

func TestDynamicReducesQueryCost(t *testing.T) {
	sm := New(tinyConfig(Static)).Run()
	dm := New(tinyConfig(Dynamic)).Run()
	if dm.QueryCost.Mean() >= sm.QueryCost.Mean() {
		t.Fatalf("dynamic query cost %v not below static %v",
			dm.QueryCost.Mean(), sm.QueryCost.Mean())
	}
}

func TestDynamicImprovesPeerHitRatio(t *testing.T) {
	sm := New(tinyConfig(Static)).Run()
	dm := New(tinyConfig(Dynamic)).Run()
	if dm.PeerHitRatio(8, 16) <= sm.PeerHitRatio(8, 16) {
		t.Fatalf("dynamic peer-hit ratio %v not above static %v",
			dm.PeerHitRatio(8, 16), sm.PeerHitRatio(8, 16))
	}
}

func TestCachesWarmOverTime(t *testing.T) {
	m := New(tinyConfig(Static)).Run()
	if m.LocalChunks.Bucket(15) <= m.LocalChunks.Bucket(0) {
		t.Fatalf("caches never warmed: %v vs %v",
			m.LocalChunks.Bucket(0), m.LocalChunks.Bucket(15))
	}
}

func TestNetworkRemainsConsistent(t *testing.T) {
	s := New(tinyConfig(Dynamic))
	s.Run()
	if !s.sess.Network().Consistent() {
		t.Fatal("network inconsistent after run")
	}
}

func TestDeterministic(t *testing.T) {
	a := New(tinyConfig(Dynamic)).Run()
	b := New(tinyConfig(Dynamic)).Run()
	if a.ChunkRequests.Total() != b.ChunkRequests.Total() ||
		a.QueryCost.Mean() != b.QueryCost.Mean() ||
		a.Reconfigurations != b.Reconfigurations {
		t.Fatal("identical seeds diverged")
	}
}

func TestQueryCostBounded(t *testing.T) {
	c := tinyConfig(Static)
	m := New(c).Run()
	// A query has at most 64 chunks, each costing at most 2x warehouse
	// mean.
	if m.QueryCost.Max() > 64*2*c.WarehouseCostMean {
		t.Fatalf("query cost %v exceeds bound", m.QueryCost.Max())
	}
	if m.QueryCost.Min() < 0 {
		t.Fatalf("negative query cost %v", m.QueryCost.Min())
	}
}
