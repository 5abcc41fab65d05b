package experiments

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/runner"
)

// ciSkewConfig returns a small, fast cell for unit tests.
func ciSkewConfig(seed uint64) SkewConfig {
	c := DefaultSkewConfig(400, seed)
	c.DurationHours = 1
	c.RatePerHour = 2
	return c
}

func TestSkewConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*SkewConfig){
		"one node":       func(c *SkewConfig) { c.Nodes = 1 },
		"zero degree":    func(c *SkewConfig) { c.Degree = 0 },
		"no providers":   func(c *SkewConfig) { c.ProviderFraction = 0 },
		"no keys":        func(c *SkewConfig) { c.Keys = 0 },
		"neg theta":      func(c *SkewConfig) { c.Theta = -0.1 },
		"no policy":      func(c *SkewConfig) { c.Policy = "" },
		"zero ttl":       func(c *SkewConfig) { c.TTL = 0 },
		"zero rate":      func(c *SkewConfig) { c.RatePerHour = 0 },
		"zero duration":  func(c *SkewConfig) { c.DurationHours = 0 },
		"neg churn":      func(c *SkewConfig) { c.ChurnMean = -1 },
		"hotless flash":  func(c *SkewConfig) { c.Flash = &FlashSpec{Peak: 2, DurationHours: 1} },
		"too many holds": func(c *SkewConfig) { c.KeysPerProvider = c.Keys + 1 },
		"too-wide flash": func(c *SkewConfig) {
			c.Flash = &FlashSpec{Peak: 2, DurationHours: 1, HotKeys: c.Keys + 1}
		},
		"NaN theta":     func(c *SkewConfig) { c.Theta = math.NaN() },
		"+Inf theta":    func(c *SkewConfig) { c.Theta = math.Inf(1) },
		"NaN providers": func(c *SkewConfig) { c.ProviderFraction = math.NaN() },
		"NaN rate":      func(c *SkewConfig) { c.RatePerHour = math.NaN() },
		"NaN duration":  func(c *SkewConfig) { c.DurationHours = math.NaN() },
		"NaN churn":     func(c *SkewConfig) { c.ChurnMean = math.NaN() },
	} {
		c := ciSkewConfig(1)
		mutate(&c)
		// RunSkew validates before it builds anything, so Validate is
		// the whole check — and a bad row fails here instead of hanging.
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := ciSkewConfig(1).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestSkewCellIsPureFunctionOfConfig(t *testing.T) {
	cfg := ciSkewConfig(7)
	cfg.ChurnMean = 1800
	a, err := RunSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same config diverged:\n%s\n%s", aj, bj)
	}
	cfg.Seed = 8
	c, err := RunSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(c)
	if string(cj) == string(aj) {
		t.Fatal("different seeds produced identical cells (suspicious)")
	}
}

func TestSkewChurnDegradesCoverage(t *testing.T) {
	stable := ciSkewConfig(3)
	a, err := RunSkew(stable)
	if err != nil {
		t.Fatal(err)
	}
	churned := stable
	churned.ChurnMean = 1800
	b, err := RunSkew(churned)
	if err != nil {
		t.Fatal(err)
	}
	if a.Logins != 0 || a.Logoffs != 0 {
		t.Fatalf("stable cell churned: %d/%d", a.Logins, a.Logoffs)
	}
	if b.Logins == 0 {
		t.Fatal("churned cell recorded no logins")
	}
	// Half the population (and so half the providers and relays) is
	// offline on average: coverage must drop.
	if b.HitRate >= a.HitRate {
		t.Fatalf("churn did not degrade hit rate: stable %v, churned %v", a.HitRate, b.HitRate)
	}
	// Offline nodes issue nothing: query volume drops toward half.
	if b.Queries >= a.Queries {
		t.Fatalf("churn did not reduce query volume: %d vs %d", b.Queries, a.Queries)
	}
}

func TestSkewSkewRaisesHitRate(t *testing.T) {
	lo := ciSkewConfig(5)
	lo.Theta = 0.3
	hi := ciSkewConfig(5)
	hi.Theta = 1.2
	a, err := RunSkew(lo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSkew(hi)
	if err != nil {
		t.Fatal(err)
	}
	// Supply and demand concentrate on the same popular keys.
	if b.HitRate <= a.HitRate {
		t.Fatalf("skew did not raise hit rate: theta %v -> %v, theta %v -> %v",
			lo.Theta, a.HitRate, hi.Theta, b.HitRate)
	}
}

func TestSkewFlashCrowdRampsVolume(t *testing.T) {
	cfg := ciSkewConfig(9)
	cfg.DurationHours = 2
	cfg.Flash = &FlashSpec{Peak: 6, StartHour: 1, DurationHours: 0.5, HotKeys: 8}
	sum, err := RunSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FlashQueries == 0 {
		t.Fatal("flash window saw no queries")
	}
	// The window is a quarter of the run but carries Peak times the
	// rate: its share of queries must be well above a quarter.
	share := float64(sum.FlashQueries) / float64(sum.Queries)
	if share < 0.4 {
		t.Fatalf("flash window carried only %.0f%% of queries", share*100)
	}
	// Hot-key concentration: in-window queries target the head of the
	// popularity distribution, where provider holdings concentrate.
	if sum.FlashHitRate <= sum.HitRate {
		t.Fatalf("hot-key flash hit rate %v not above overall %v", sum.FlashHitRate, sum.HitRate)
	}
}

// TestSkewWorkerCountInvariance is the family-level determinism check:
// the exact JSON the artifact writer would emit must not depend on the
// worker count.
func TestSkewWorkerCountInvariance(t *testing.T) {
	if cellsJSON(t, SkewCells("skew", CI, 1), 1) != cellsJSON(t, SkewCells("skew", CI, 1), 8) {
		t.Fatal("skew cells.json depends on the worker count")
	}
}

func TestSkewCellsWellFormed(t *testing.T) {
	cells := SkewCells("skew", CI, 1)
	if len(cells) != len(skewThetas)*len(skewChurns)*len(skewPolicies)+1 {
		t.Fatalf("grid has %d cells", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Name] {
			t.Fatalf("duplicate cell %q", c.Name)
		}
		seen[c.Name] = true
		if c.Seed != runner.DeriveSeed(1, "skew", c.Name) {
			t.Fatalf("cell %q seed not derived from its labels", c.Name)
		}
	}
	if !seen["flash"] {
		t.Fatal("flash cell missing")
	}
}
