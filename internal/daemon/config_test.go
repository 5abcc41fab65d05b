package daemon

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func TestConfigDefaultsAndValidate(t *testing.T) {
	c := Config{Nodes: 8}
	c.ApplyDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
	if c.Total != 8 || c.Name != "d0" {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.GossipInterval() <= 0 || c.QueryWindow() <= 0 || c.DrainTimeout() <= 0 {
		t.Fatal("duration accessors returned non-positive values")
	}
}

func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }, "node count"},
		{"negative base", func(c *Config) { c.BaseID = -1 }, "base"},
		{"short total", func(c *Config) { c.Total = 4; c.BaseID = 2 }, "total"},
		{"NaN fault rate", func(c *Config) { c.Faults.Drop = math.NaN() }, "fault rates"},
		{"negative query window", func(c *Config) { c.QueryWindowMillis = -5 }, "query_window_ms"},
		{"negative drain timeout", func(c *Config) { c.DrainTimeoutMillis = -1 }, "drain_timeout_ms"},
		{"negative fault delay", func(c *Config) { c.Faults.DelayMinMillis = -3 }, "fault delay min"},
		{"negative gossip interval", func(c *Config) { c.GossipIntervalMillis = -1 }, "gossip_interval_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Config{Nodes: 8}
			c.ApplyDefaults()
			tc.mut(&c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "daemon.json")
	if err := os.WriteFile(path, []byte(`{
		"nodes": 12, "seed": 9
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path, Config{Nodes: 8, TTL: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The file's fields replace the base's; the base's others survive.
	if c.Nodes != 12 || c.Seed != 9 || c.TTL != 7 {
		t.Fatalf("unexpected config: %+v", c)
	}

	for name, tc := range map[string]struct{ body, want string }{
		"unknown field":   {`{"nodez": 12}`, `"nodez"`},
		"trailing object": {`{"nodes": 12} {"nodes": 99}`, "trailing data"},
		"trailing bytes":  {`{"nodes": 12}]`, "trailing data"},
		// Every node floods: the forward policy is not a daemon setting.
		"retired policy": {`{"nodes": 12, "policy": "random-2"}`, `"policy"`},
		// A process is one shard of several because total exceeds nodes:
		// there is no transport to choose.
		"retired transport": {`{"nodes": 4, "total": 12, "transport": "tcp"}`, `"transport"`},
		// The membership knobs one value served are constants now.
		"retired gossip_fanout":     {`{"nodes": 12, "gossip_fanout": 2}`, `"gossip_fanout"`},
		"retired fd_suspect_rounds": {`{"nodes": 12, "fd_suspect_rounds": 3}`, `"fd_suspect_rounds"`},
		"retired fd_evict_rounds":   {`{"nodes": 12, "fd_evict_rounds": 6}`, `"fd_evict_rounds"`},
		"retired fd_amnesty_rounds": {`{"nodes": 12, "fd_amnesty_rounds": 12}`, `"fd_amnesty_rounds"`},
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(bad, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %s", name, err, tc.want)
		}
	}
}

func TestBuildWorldDeterministic(t *testing.T) {
	a := BuildWorld(42, 50, 3, 200, 3)
	b := BuildWorld(42, 50, 3, 200, 3)
	for i := 0; i < 50; i++ {
		oa, ob := a.Net.Out(topology.NodeID(i)), b.Net.Out(topology.NodeID(i))
		if len(oa) != len(ob) {
			t.Fatalf("node %d degree differs: %d vs %d", i, len(oa), len(ob))
		}
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("node %d edge %d differs", i, j)
			}
		}
	}
	for k := 0; k < 200; k++ {
		for i := 0; i < 50; i++ {
			if a.HasContent(topology.NodeID(i), core.Key(k)) != b.HasContent(topology.NodeID(i), core.Key(k)) {
				t.Fatalf("placement differs at node %d key %d", i, k)
			}
		}
	}
	pa, pb := a.QueryPlan(100), b.QueryPlan(100)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("query plan differs at %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}
