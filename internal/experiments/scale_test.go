package experiments

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/topology"
)

// smallScaleConfig keeps unit tests fast: the family's structure at a
// few hundred nodes.
func smallScaleConfig(seed uint64) ScaleConfig {
	cfg := DefaultScaleConfig(400, 300, seed)
	return cfg
}

func TestRunScaleDeterministic(t *testing.T) {
	a, err := RunScale(smallScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(smallScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same config, different summaries:\n%s\n%s", aj, bj)
	}
	if a.Hits == 0 {
		t.Fatal("no query was satisfied; workload degenerate")
	}
	if a.Clients+a.Providers+a.Bystanders != a.Nodes {
		t.Fatalf("roles don't partition: %+v", a)
	}
	if a.Messages == 0 || a.MsgsPerQuery <= 0 {
		t.Fatalf("no traffic recorded: %+v", a)
	}
	if a.DelayP50Ms > a.DelayP95Ms || a.DelayP95Ms > a.DelayP99Ms {
		t.Fatalf("percentiles not monotone: %+v", a)
	}
}

func TestRunScaleSeedSensitivity(t *testing.T) {
	a, err := RunScale(smallScaleConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(smallScaleConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages == b.Messages && a.Hits == b.Hits {
		t.Fatal("distinct seeds produced identical runs; seed is ignored somewhere")
	}
}

func TestScaleConfigValidate(t *testing.T) {
	bad := []func(*ScaleConfig){
		func(c *ScaleConfig) { c.Nodes = 1 },
		func(c *ScaleConfig) { c.Degree = 0 },
		func(c *ScaleConfig) { c.ProviderFraction = 0 },
		func(c *ScaleConfig) { c.ProviderFraction = 0.8; c.ClientFraction = 0.5 },
		func(c *ScaleConfig) { c.Keys = 0 },
		func(c *ScaleConfig) { c.Queries = 0 },
		func(c *ScaleConfig) { c.TTL = 0 },
		// Each of these passed Validate once and then hung in the
		// distinct-key holdings loop or panicked in rng.NewZipf.
		func(c *ScaleConfig) { c.KeysPerProvider = c.Keys + 1 },
		func(c *ScaleConfig) { c.Theta = math.NaN() },
		func(c *ScaleConfig) { c.Theta = -1 },
		func(c *ScaleConfig) { c.Theta = math.Inf(1) },
		func(c *ScaleConfig) { c.ProviderFraction = math.NaN() },
		func(c *ScaleConfig) { c.ClientFraction = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := smallScaleConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
	if err := smallScaleConfig(1).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestScaleWire: deterministic, degree-bounded, self-loop-free wiring
// in O(N*degree).
func TestScaleWire(t *testing.T) {
	build := func() *topology.Network {
		net := topology.NewNetwork(topology.Symmetric, 500, 4, 4)
		scaleWire(net, 4, rng.New(3))
		return net
	}
	a, b := build(), build()
	for i := 0; i < a.Len(); i++ {
		id := topology.NodeID(i)
		out := a.Out(id)
		if len(out) > 4 {
			t.Fatalf("node %d has degree %d > 4", i, len(out))
		}
		for _, nb := range out {
			if nb == id {
				t.Fatalf("node %d wired to itself", i)
			}
		}
		bOut := b.Out(id)
		if len(out) != len(bOut) {
			t.Fatalf("wiring nondeterministic at node %d", i)
		}
		for j := range out {
			if out[j] != bOut[j] {
				t.Fatalf("wiring nondeterministic at node %d", i)
			}
		}
	}
	if !a.Consistent() {
		t.Fatal("wired network violates the consistency invariant")
	}
	if a.Freeze().EdgeCount() == 0 {
		t.Fatal("no edges wired")
	}
}

// TestScaleCellsWorkerInvariance is the family's own determinism gate:
// the full sweep (1k/10k/100k) must produce byte-identical result
// values at 1 and 4 workers. This is the in-process version of the CI
// smoke check that diffs runs/<name>/cells.json.
func TestScaleCellsWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if a, b := cellsJSON(t, ScaleCells("scale", CI, 1), 1), cellsJSON(t, ScaleCells("scale", CI, 1), 4); a != b {
		t.Fatal("scale results differ between 1 and 4 workers")
	}
}

// cellsJSON runs cells on the given number of workers and returns the
// results marshaled as cells.json holds them.
func cellsJSON(t *testing.T, cells []runner.Cell, workers int) string {
	t.Helper()
	rs, err := runner.Run(context.Background(), cells, runner.Options{Workers: workers})
	if err == nil {
		err = runner.FirstError(rs)
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
