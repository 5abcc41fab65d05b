package webcache

import (
	"testing"

	"repro/internal/workload"
)

// tinyConfig runs in well under a second.
func tinyConfig(mode Mode) Config {
	c := DefaultConfig(mode)
	c.Web = workload.WebConfig{
		Pages:           5000,
		Interests:       10,
		PopularityTheta: 0.9,
		Proxies:         30,
		LocalFraction:   0.7,
		RequestsPerHour: 600,
	}
	c.CacheCapacity = 100
	c.DurationHours = 12
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
		"zero neighbors":    func(c *Config) { c.Neighbors = 0 },
		"zero cache":        func(c *Config) { c.CacheCapacity = 0 },
		"zero explore":      func(c *Config) { c.ExplorePeriodHours = 0 },
		"zero explore TTL":  func(c *Config) { c.ExploreTTL = 0 },
		"zero origin delay": func(c *Config) { c.OriginDelayMean = 0 },
		"zero duration":     func(c *Config) { c.DurationHours = 0 },
	} {
		c := DefaultConfig(Dynamic)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestStaticModeSkipsPeriodChecks(t *testing.T) {
	c := DefaultConfig(Static)
	c.ExplorePeriodHours = 0 // irrelevant in static mode
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestsPartitionIntoOutcomes(t *testing.T) {
	s := New(tinyConfig(Dynamic))
	m := s.Run()
	req := m.Requests.Total()
	if req == 0 {
		t.Fatal("no requests")
	}
	sum := m.LocalHits.Total() + m.NeighborHits.Total() + m.OriginFetches.Total()
	if sum != req {
		t.Fatalf("outcomes %v do not partition requests %v", sum, req)
	}
	if m.Latency.N() != uint64(req) {
		t.Fatalf("latency observations %d != requests %v", m.Latency.N(), req)
	}
}

func TestLocalHitsGrowWithWarmCache(t *testing.T) {
	s := New(tinyConfig(Static))
	m := s.Run()
	cold := m.LocalHits.Bucket(0)
	warm := m.LocalHits.Bucket(11)
	if warm <= cold {
		t.Fatalf("cache never warmed: hour0=%v hour11=%v", cold, warm)
	}
}

func TestDynamicReconfigures(t *testing.T) {
	s := New(tinyConfig(Dynamic))
	m := s.Run()
	if m.Reconfigurations == 0 {
		t.Fatal("dynamic webcache never reconfigured")
	}
	if m.Meter.Total(2) == 0 { // MsgExplore
		t.Fatal("no exploration traffic")
	}
}

func TestStaticDoesNotReconfigure(t *testing.T) {
	s := New(tinyConfig(Static))
	m := s.Run()
	if m.Reconfigurations != 0 {
		t.Fatal("static webcache reconfigured")
	}
	if m.Meter.Total(2) != 0 {
		t.Fatal("static webcache explored")
	}
}

func TestDynamicBeatsStaticOnNeighborHits(t *testing.T) {
	sm := New(tinyConfig(Static)).Run()
	dm := New(tinyConfig(Dynamic)).Run()
	// Compare the warmed-up second half.
	sRatio := sm.NeighborHitRatio(6, 12)
	dRatio := dm.NeighborHitRatio(6, 12)
	if dRatio <= sRatio {
		t.Fatalf("dynamic neighbor-hit ratio %v not above static %v", dRatio, sRatio)
	}
}

func TestDigestGuidanceReducesQueryTraffic(t *testing.T) {
	plain := tinyConfig(Dynamic)
	guided := tinyConfig(Dynamic)
	guided.UseDigests = true
	pm := New(plain).Run()
	gm := New(guided).Run()
	if gm.Meter.Total(0) >= pm.Meter.Total(0) { // MsgQuery
		t.Fatalf("digests did not reduce query traffic: %d vs %d",
			gm.Meter.Total(0), pm.Meter.Total(0))
	}
}

func TestNetworkRemainsConsistent(t *testing.T) {
	s := New(tinyConfig(Dynamic))
	s.Run()
	if !s.sess.Network().Consistent() {
		t.Fatal("asymmetric network inconsistent after run")
	}
}

func TestDeterministic(t *testing.T) {
	a := New(tinyConfig(Dynamic)).Run()
	b := New(tinyConfig(Dynamic)).Run()
	if a.Requests.Total() != b.Requests.Total() ||
		a.NeighborHits.Total() != b.NeighborHits.Total() ||
		a.Latency.Mean() != b.Latency.Mean() {
		t.Fatal("identical seeds diverged")
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Neighbor fetches must be cheaper than origin fetches on average;
	// verify via the aggregate: a run with cooperation must have lower
	// mean latency than one whose proxies have no neighbors.
	coop := tinyConfig(Static)
	loner := tinyConfig(Static)
	loner.Neighbors = 1 // minimal cooperation (0 is invalid)
	cm := New(coop).Run()
	lm := New(loner).Run()
	if cm.Latency.Mean() >= lm.Latency.Mean() {
		t.Fatalf("cooperation did not reduce latency: %v vs %v",
			cm.Latency.Mean(), lm.Latency.Mean())
	}
}
