package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/pkg/search"
)

// The skew experiment family is the first workload built directly on
// the session driver (internal/driver): a Zipf-exponent × churn-rate ×
// forward-policy grid over one mid-size network, plus a flash-crowd
// cell. Where the scale family isolates the per-query hot path with a
// bare query loop, skew exercises the full session timeline — Poisson
// arrivals per node, stationary-initialized on/off churn masking the
// static overlay, and a non-homogeneous arrival ramp — and shows that
// a new workload is a Spec literal plus an OnQuery hook, not a new
// package.
//
// Axes:
//
//   - Theta: content popularity skew. Providers sample their holdings
//     and clients their requests from the same Zipf, so higher skew
//     concentrates both supply and demand on the popular keys.
//   - Churn: mean on/off session length (0 = stable membership). Edges
//     are wired once; offline nodes neither answer nor forward, so
//     churn thins the effective overlay without rewiring it.
//   - Policy: pkg/search policy name (flood vs bounded fan-out).
//
// The flash-crowd cell ramps every node's arrival rate by FlashPeak
// inside a half-hour window and focuses in-window queries on the
// flashHotKeys most popular keys — demand spiking faster than any
// reconfiguration could follow.
//
// Determinism: each cell's seed derives from the experiment seed and
// the cell name (runner.DeriveSeed), every draw comes from the cell's
// own stream tree, and stochastic policies use the engine's per-query
// derived streams — cells.json is byte-identical at any -workers
// count.

// SkewConfig parameterizes one skew cell.
type SkewConfig struct {
	// Nodes and Degree shape the symmetric overlay.
	Nodes, Degree int
	// ProviderFraction of the population holds content.
	ProviderFraction float64
	// Keys is the content key space; each provider holds
	// KeysPerProvider keys Zipf(Theta)-sampled from it.
	Keys, KeysPerProvider int
	// Theta is the Zipf exponent shared by holdings and requests.
	Theta float64
	// Policy selects the forward policy by pkg/search policy name.
	Policy string
	// TTL bounds each search.
	TTL int
	// RatePerHour is the per-node query arrival rate.
	RatePerHour float64
	// DurationHours is the simulated period.
	DurationHours float64
	// ChurnMean is the mean on-line and off-line session length in
	// seconds; 0 disables churn (stable membership).
	ChurnMean float64
	// Flash, when non-nil, replaces plain Poisson arrivals with the
	// flash-crowd ramp and focuses in-window queries on the HotKeys
	// most popular keys.
	Flash *FlashSpec
	// Seed determines the entire cell.
	Seed uint64
}

// FlashSpec positions the flash-crowd ramp of one cell.
type FlashSpec struct {
	// Peak multiplies the arrival rate inside the window.
	Peak float64
	// StartHour and DurationHours position the window.
	StartHour, DurationHours float64
	// HotKeys is how many top-popularity keys the in-window queries
	// concentrate on.
	HotKeys int
}

// Validate reports configuration errors.
func (c SkewConfig) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("experiments: skew with %d nodes", c.Nodes)
	case c.Degree < 1:
		return fmt.Errorf("experiments: skew degree %d", c.Degree)
	case !(c.ProviderFraction > 0 && c.ProviderFraction <= 1):
		return fmt.Errorf("experiments: skew provider fraction %v", c.ProviderFraction)
	case c.Keys < 1 || c.KeysPerProvider < 1:
		return fmt.Errorf("experiments: skew key space %d/%d", c.Keys, c.KeysPerProvider)
	case c.KeysPerProvider > c.Keys:
		// The holdings sampler collects distinct keys; more holdings
		// than keys could never terminate.
		return fmt.Errorf("experiments: skew holdings %d exceed the %d-key space",
			c.KeysPerProvider, c.Keys)
	case badTheta(c.Theta):
		return fmt.Errorf("experiments: skew theta %v", c.Theta)
	case c.Policy == "":
		return fmt.Errorf("experiments: skew without a policy")
	case c.TTL < 1:
		return fmt.Errorf("experiments: skew TTL %d", c.TTL)
	case !(c.RatePerHour > 0):
		return fmt.Errorf("experiments: skew rate %v/h", c.RatePerHour)
	case !(c.DurationHours > 0):
		// Written so that NaN is bad: a NaN horizon never ends the run.
		return fmt.Errorf("experiments: skew duration %vh", c.DurationHours)
	case !(c.ChurnMean >= 0):
		return fmt.Errorf("experiments: skew churn mean %v", c.ChurnMean)
	case c.Flash != nil && (c.Flash.HotKeys < 1 || c.Flash.HotKeys > c.Keys):
		// Hot keys index the head of the popularity order; a hot set
		// wider than the key space would query keys nobody can hold.
		return fmt.Errorf("experiments: flash crowd over %d hot keys (key space %d)",
			c.Flash.HotKeys, c.Keys)
	}
	return nil
}

// DefaultSkewConfig returns the grid's shared shape at the given
// network size: the paper's degree-4 overlay, 10% providers, a key
// space that grows with the network, flood at TTL 3.
func DefaultSkewConfig(nodes int, seed uint64) SkewConfig {
	return SkewConfig{
		Nodes:            nodes,
		Degree:           4,
		ProviderFraction: 0.10,
		Keys:             nodes / 2,
		KeysPerProvider:  16,
		Theta:            0.9,
		Policy:           "flood",
		TTL:              3,
		RatePerHour:      skewRatePerHour,
		DurationHours:    skewDurationHours,
		Seed:             seed,
	}
}

// SkewSummary is the deterministic (JSON-stable) output of one skew
// cell — the `value` schema of skew cells in cells.json.
type SkewSummary struct {
	Nodes     int     `json:"nodes"`
	Providers int     `json:"providers"`
	Theta     float64 `json:"theta"`
	ChurnMean float64 `json:"churn_mean_s"`
	Policy    string  `json:"policy"`
	QueryStats
	// Logins and Logoffs count churn transitions (0 when stable).
	Logins  uint64 `json:"logins"`
	Logoffs uint64 `json:"logoffs"`
	// FlashQueries and FlashHitRate cover the ramp window. Both are
	// always emitted (grid cells carry zeros) so the schema is uniform
	// across cells and a measured zero hit rate stays visible.
	FlashQueries int     `json:"flash_queries"`
	FlashHitRate float64 `json:"flash_hit_rate"`
}

// Grid axes. Policies are pkg/search policy names; churn levels
// are mean session lengths; thetas span near-uniform to heavy skew.
var (
	skewThetas = []float64{0.5, 0.9, 1.2}
	skewChurns = []struct {
		name string
		mean float64
	}{
		{"stable", 0},
		{"churn3h", 3 * 3600},
		{"churn30m", 30 * 60},
	}
	skewPolicies = []string{"flood", "random-2"}
)

// Workload intensity and flash-crowd shape of the family.
const (
	skewRatePerHour   = 0.5
	skewDurationHours = 4
	flashPeak         = 6.0
	flashWindowHours  = 0.5
	flashHotKeys      = 16
)

// skewNodes returns the grid's network size: 10k at full scale, 1k in
// CI — both far above the paper's 2,000-user evaluation per node
// budget of a figure cell, small enough for a grid.
func skewNodes(s Scale) int {
	if s == Full {
		return 10_000
	}
	return 1_000
}

// SkewCells returns the grid cells (theta × churn × policy, in that
// nesting order) plus the flash-crowd cell. Every cell derives its own
// seed from (seed, experiment, cell name), so the family is
// deterministic at any worker count and cells can be re-run in
// isolation.
func SkewCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	nodes := skewNodes(scale)
	mk := func(name string, cfg SkewConfig) runner.Cell {
		return cell(experiment, name, cfg, func(c *SkewConfig) *uint64 { return &c.Seed }, RunSkew)
	}
	var cells []runner.Cell
	for _, theta := range skewThetas {
		for _, churn := range skewChurns {
			for _, policy := range skewPolicies {
				name := fmt.Sprintf("theta%02.0f-%s-%s", theta*10, churn.name, policy)
				cfg := DefaultSkewConfig(nodes, runner.DeriveSeed(seed, experiment, name))
				cfg.Theta = theta
				cfg.ChurnMean = churn.mean
				cfg.Policy = policy
				cells = append(cells, mk(name, cfg))
			}
		}
	}
	flash := DefaultSkewConfig(nodes, runner.DeriveSeed(seed, experiment, "flash"))
	flash.Flash = &FlashSpec{
		Peak:          flashPeak,
		StartHour:     skewDurationHours / 2,
		DurationHours: flashWindowHours,
		HotKeys:       flashHotKeys,
	}
	return append(cells, mk("flash", flash))
}

// skewWorld is one cell's domain state over the session driver.
type skewWorld struct {
	cfg   SkewConfig
	sess  *driver.Session
	zipf  *rng.Zipf
	holds []map[core.Key]struct{}
	arr   driver.FlashCrowd // flash cell only (cfg.Flash != nil)

	sum       SkewSummary
	flashHits int
}

// RunSkew executes one skew cell: generate the world (roles, holdings,
// classes), hand the timeline to a driver session, drive it to the
// horizon, summarize. The summary is a pure function of the config.
func RunSkew(cfg SkewConfig) (*SkewSummary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	roleStream := root.Split()
	holdStream := root.Split()
	classes := netsim.AssignClasses(root.Split().Intn, cfg.Nodes)

	n := cfg.Nodes
	providers := int(float64(n) * cfg.ProviderFraction)
	if providers < 1 {
		providers = 1
	}
	w := &skewWorld{
		cfg:   cfg,
		zipf:  rng.NewZipf(cfg.Keys, cfg.Theta),
		holds: make([]map[core.Key]struct{}, n),
	}
	perm := roleStream.Perm(n)
	for i := 0; i < providers; i++ {
		h := make(map[core.Key]struct{}, cfg.KeysPerProvider)
		for len(h) < cfg.KeysPerProvider {
			h[core.Key(w.zipf.Index(holdStream))] = struct{}{}
		}
		w.holds[perm[i]] = h
	}
	w.sum = SkewSummary{
		Nodes:     n,
		Providers: providers,
		Theta:     cfg.Theta,
		ChurnMean: cfg.ChurnMean,
		Policy:    cfg.Policy,
	}

	var arrivals driver.Arrivals = driver.Poisson{RatePerHour: cfg.RatePerHour}
	if f := cfg.Flash; f != nil {
		w.arr = driver.FlashCrowd{
			BaseRatePerHour: cfg.RatePerHour,
			Peak:            f.Peak,
			StartHour:       f.StartHour,
			DurationHours:   f.DurationHours,
		}
		arrivals = w.arr
	}
	var churn *workload.ChurnConfig
	if cfg.ChurnMean > 0 {
		churn = &workload.ChurnConfig{MeanOnline: cfg.ChurnMean, MeanOffline: cfg.ChurnMean}
	}
	sess, err := driver.New(driver.Spec{
		Nodes:    n,
		Relation: topology.Symmetric,
		OutCap:   cfg.Degree,
		InCap:    cfg.Degree,
		Duration: cfg.DurationHours * 3600,
		// Bounded random probing, not topology.RandomWire: the grid's
		// full-scale cells have 10k nodes (see scaleWire).
		Place: func(s *driver.Session) {
			scaleWire(s.Network(), cfg.Degree, s.TopoStream())
		},
		Arrivals: arrivals,
		Churn:    churn,
		Content: core.ContentFunc(func(id topology.NodeID, key core.Key) bool {
			_, ok := w.holds[id][key]
			return ok
		}),
		Classes: func(id topology.NodeID) netsim.BandwidthClass { return classes[id] },
		Policy:  cfg.Policy,
		TTL:     cfg.TTL,
		Seed:    cfg.Seed,
		OnQuery: w.onQuery,
	}, root)
	if err != nil {
		return nil, err
	}
	w.sess = sess

	sess.Run()

	s := &w.sum
	s.Logins = sess.Logins()
	s.Logoffs = sess.Logoffs()
	s.finish()
	if s.FlashQueries > 0 {
		s.FlashHitRate = float64(w.flashHits) / float64(s.FlashQueries)
	}
	return s, nil
}

// onQuery handles one arrival: sample a key (the hot set inside the
// flash window, the cell's Zipf otherwise), search, tally.
func (w *skewWorld) onQuery(id topology.NodeID, now float64) {
	st := w.sess.QueryStream(id)
	inFlash := w.cfg.Flash != nil && w.arr.InWindow(now)
	var key core.Key
	if inFlash {
		key = core.Key(st.Intn(w.cfg.Flash.HotKeys))
		w.sum.FlashQueries++
	} else {
		key = core.Key(w.zipf.Index(st))
	}
	out := w.sess.Do(search.Query{
		ID:     w.sess.NextQueryID(),
		Key:    key,
		Origin: id,
	})
	if w.sum.tally(out) && inFlash {
		w.flashHits++
	}
}

// SkewTable renders the grid plus the flash cell.
func SkewTable(rs []runner.Result, sums []*SkewSummary) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Skew grid: Zipf × churn × policy over one %d-node session", sums[0].Nodes),
		"cell", "theta", "policy", "queries", "hit_rate", "msgs/query", "p50_ms", "p95_ms")
	for i, s := range sums {
		t.AddRow(rs[i].Cell, s.Theta, s.Policy, s.Queries, s.HitRate, s.MsgsPerQuery,
			s.DelayP50Ms, s.DelayP95Ms)
	}
	return t
}
