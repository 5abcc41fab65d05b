package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/runner"
)

// ciFaultsConfig returns a small, fast cell for unit tests.
func ciFaultsConfig(seed uint64) FaultsConfig {
	return DefaultFaultsConfig(600, 300, seed)
}

func TestFaultsConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*FaultsConfig){
		"one node":      func(c *FaultsConfig) { c.Nodes = 1 },
		"zero degree":   func(c *FaultsConfig) { c.Degree = 0 },
		"no policy":     func(c *FaultsConfig) { c.Policy = "" },
		"zero ttl":      func(c *FaultsConfig) { c.TTL = 0 },
		"neg drop":      func(c *FaultsConfig) { c.Drop = -0.1 },
		"full drop":     func(c *FaultsConfig) { c.Drop = 1 },
		"neg crash":     func(c *FaultsConfig) { c.CrashFraction = -0.1 },
		"half crash":    func(c *FaultsConfig) { c.CrashFraction = 0.5 },
		"zero queries":  func(c *FaultsConfig) { c.Queries = 0 },
		"bogus policy":  func(c *FaultsConfig) { c.Policy = "carrier-pigeon" },
		"no clients":    func(c *FaultsConfig) { c.ClientFraction = 0 },
		"no key space":  func(c *FaultsConfig) { c.Keys = 0 },
		"no per-holder": func(c *FaultsConfig) { c.KeysPerProvider = 0 },
	} {
		c := ciFaultsConfig(1)
		mutate(&c)
		if _, err := RunFaults(c); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestFaultsCellIsPureFunctionOfConfig(t *testing.T) {
	cfg := ciFaultsConfig(7)
	cfg.Drop = 0.1
	cfg.CrashFraction = 0.1
	a, err := RunFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same config diverged:\n%s\n%s", aj, bj)
	}
	cfg.Seed = 8
	c, err := RunFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(c)
	if string(cj) == string(aj) {
		t.Fatal("different seeds produced identical cells (suspicious)")
	}
}

// Faults must actually degrade the search: drop and crash each cost
// hit rate against the clean baseline, and the crash set removes the
// configured share of the population.
func TestFaultsDegradeHitRate(t *testing.T) {
	clean := ciFaultsConfig(3)
	base, err := RunFaults(clean)
	if err != nil {
		t.Fatal(err)
	}
	if base.Crashed != 0 || base.HitRate == 0 {
		t.Fatalf("clean cell: crashed=%d hit_rate=%v", base.Crashed, base.HitRate)
	}

	dropped := clean
	dropped.Drop = 0.4
	d, err := RunFaults(dropped)
	if err != nil {
		t.Fatal(err)
	}
	if d.HitRate >= base.HitRate {
		t.Fatalf("40%% drop did not degrade hit rate: %v -> %v", base.HitRate, d.HitRate)
	}
	// Dropped copies never propagate: message volume drops too.
	if d.Messages >= base.Messages {
		t.Fatalf("40%% drop did not reduce messages: %d -> %d", base.Messages, d.Messages)
	}

	crashed := clean
	crashed.CrashFraction = 0.3
	c, err := RunFaults(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(float64(clean.Nodes) * 0.3); c.Crashed != want {
		t.Fatalf("crashed %d nodes, want %d", c.Crashed, want)
	}
	if c.HitRate >= base.HitRate {
		t.Fatalf("30%% crashes did not degrade hit rate: %v -> %v", base.HitRate, c.HitRate)
	}
	if c.LiveClients >= base.LiveClients {
		t.Fatalf("crash set spared every client: %d -> %d", base.LiveClients, c.LiveClients)
	}
}

// TestFaultsWorkerCountInvariance is the family-level determinism
// check: the exact JSON the artifact writer would emit must not depend
// on the worker count.
func TestFaultsWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full CI-scale grid twice")
	}
	if cellsJSON(t, FaultsCells("faults", CI, 1), 1) != cellsJSON(t, FaultsCells("faults", CI, 1), 8) {
		t.Fatal("faults cells.json depends on the worker count")
	}
}

func TestFaultsCellsWellFormed(t *testing.T) {
	cells := FaultsCells("faults", CI, 1)
	if len(cells) != len(faultsPolicies)*len(faultsDrops)*len(faultsCrashes) {
		t.Fatalf("grid has %d cells", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Name] {
			t.Fatalf("duplicate cell %q", c.Name)
		}
		seen[c.Name] = true
		if c.Seed != runner.DeriveSeed(1, "faults", c.Name) {
			t.Fatalf("cell %q seed not derived from its labels", c.Name)
		}
	}
	if !seen["flood-d00-c00"] || !seen["random-2-d15-c10"] {
		t.Fatal("expected grid corners missing")
	}
}
