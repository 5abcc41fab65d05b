package gnutella

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// tinyConfig runs in well under a second.
func tinyConfig(mode Mode, ttl int) Config {
	c := DefaultConfig(mode, ttl)
	c.Music = workload.MusicConfig{
		Songs:             5000,
		Categories:        50,
		PopularityTheta:   0.9,
		UserCategoryTheta: 0.9,
		Users:             100,
		LibraryMean:       40,
		LibraryStd:        10,
		FavoriteFraction:  0.5,
		OtherCategories:   5,
	}
	c.DurationHours = 6
	return c
}

func TestModeString(t *testing.T) {
	if Static.String() != "Gnutella" || Dynamic.String() != "Dynamic_Gnutella" {
		t.Fatal("mode names drifted from the paper's legend")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(Dynamic, 2)
	if c.Neighbors != 4 || c.ReconfigThreshold != 2 || c.DurationHours != 96 {
		t.Fatalf("default config drifted: %+v", c)
	}
	if c.MaxSwaps != 1 {
		t.Fatalf("MaxSwaps = %d, want 1 per the paper", c.MaxSwaps)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero neighbors": func(c *Config) { c.Neighbors = 0 },
		"zero TTL":       func(c *Config) { c.TTL = 0 },
		"zero threshold": func(c *Config) { c.ReconfigThreshold = 0 },
		"zero duration":  func(c *Config) { c.DurationHours = 0 },
	} {
		c := DefaultConfig(Dynamic, 2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestRunProducesActivity(t *testing.T) {
	s := New(tinyConfig(Static, 2))
	m := s.Run()
	if m.Queries.Total() == 0 {
		t.Fatal("no queries issued")
	}
	if m.Meter.Total(0) == 0 { // MsgQuery
		t.Fatal("no query messages propagated")
	}
	if m.LoginCount == 0 {
		t.Fatal("no churn activity")
	}
	if m.Hits.Total() == 0 {
		t.Fatal("no hits at all — workload or search broken")
	}
	if m.Hits.Total() > m.Queries.Total() {
		t.Fatal("more hits than queries")
	}
}

func TestNetworkStaysConsistentDuringRun(t *testing.T) {
	for _, mode := range []Mode{Static, Dynamic} {
		s := New(tinyConfig(mode, 2))
		horizon := 6 * 3600.0
		s.sess.Engine().SetHorizon(horizon)
		s.Run()
		if !s.Network().Consistent() {
			t.Fatalf("%v network inconsistent after run", mode)
		}
		for i := 0; i < 100; i++ {
			out, in := s.Network().Node(topology.NodeID(i)).Out.Len(), s.Network().Node(topology.NodeID(i)).In.Len()
			if out > 4 || in > 4 {
				t.Fatalf("%v node %d degree (%d,%d) exceeds cap", mode, i, out, in)
			}
		}
	}
}

func TestOfflineNodesAreIsolated(t *testing.T) {
	s := New(tinyConfig(Dynamic, 2))
	s.Run()
	for i := 0; i < 100; i++ {
		id := topology.NodeID(i)
		out, in := s.Network().Node(id).Out.Len(), s.Network().Node(id).In.Len()
		if !s.sess.IsOnline(id) && (out != 0 || in != 0) {
			t.Fatalf("offline node %d still wired (%d,%d)", i, out, in)
		}
	}
}

func TestOnlineFractionNearHalf(t *testing.T) {
	s := New(tinyConfig(Static, 2))
	s.Run()
	online := 0
	for id := topology.NodeID(0); id < 100; id++ {
		if s.sess.IsOnline(id) {
			online++
		}
	}
	frac := float64(online) / 100
	if frac < 0.25 || frac > 0.75 {
		t.Fatalf("online fraction %v far from stationary 0.5", frac)
	}
}

func TestDynamicReconfigures(t *testing.T) {
	s := New(tinyConfig(Dynamic, 2))
	m := s.Run()
	if m.Reconfigurations == 0 {
		t.Fatal("dynamic mode never reconfigured")
	}
	// Control traffic must exist (invitations/evictions).
	if m.Meter.Total(3) == 0 { // MsgInvite
		t.Fatal("no invitations sent")
	}
}

func TestStaticNeverReconfigures(t *testing.T) {
	s := New(tinyConfig(Static, 2))
	m := s.Run()
	if m.Reconfigurations != 0 {
		t.Fatal("static mode reconfigured")
	}
	if m.Meter.Total(3) != 0 {
		t.Fatal("static mode sent invitations")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := New(tinyConfig(Dynamic, 2)).Run()
	b := New(tinyConfig(Dynamic, 2)).Run()
	if a.Hits.Total() != b.Hits.Total() ||
		a.Queries.Total() != b.Queries.Total() ||
		a.Meter.Total(0) != b.Meter.Total(0) ||
		a.TotalResults != b.TotalResults {
		t.Fatal("identical seeds produced different runs")
	}
}

func TestSeedChangesRun(t *testing.T) {
	c1 := tinyConfig(Dynamic, 2)
	c2 := tinyConfig(Dynamic, 2)
	c2.Seed = 999
	a := New(c1).Run()
	b := New(c2).Run()
	if a.Queries.Total() == b.Queries.Total() && a.Meter.Total(0) == b.Meter.Total(0) {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestHigherTTLFindsMore(t *testing.T) {
	c1 := tinyConfig(Static, 1)
	c2 := tinyConfig(Static, 3)
	h1 := New(c1).Run().Hits.Total()
	h3 := New(c2).Run().Hits.Total()
	if h3 <= h1 {
		t.Fatalf("TTL 3 hits (%v) not above TTL 1 hits (%v)", h3, h1)
	}
}

func TestFirstResultDelayPlausible(t *testing.T) {
	s := New(tinyConfig(Static, 2))
	m := s.Run()
	if m.FirstResultDelay.N() == 0 {
		t.Fatal("no delay observations")
	}
	mean := m.FirstResultDelay.Mean()
	// One round trip over 1-2 hops with 70-300ms one-way delays.
	if mean < 0.1 || mean > 3 {
		t.Fatalf("mean first-result delay %v s implausible", mean)
	}
}
