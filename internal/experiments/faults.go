package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/pkg/search"
)

// The faults experiment family measures graceful degradation of the
// search protocol itself: how much hit rate and latency a network
// loses when messages are dropped and nodes are dead, as a function of
// the forward policy. It reuses the scale family's role-partitioned
// fixture and drives the deterministic engine, injecting faults with
// the same per-link decision-stream math the live fault plane
// (internal/faults) uses — faults.LossyPolicy drops forwarded copies
// link-by-link, and a crash mask removes a seed-chosen fraction of
// nodes from routing and serving. Every cell is a pure function of its
// config: the summaries land in cells.json byte-identically at any
// worker count.

// FaultsConfig parameterizes one faults cell.
type FaultsConfig struct {
	// Nodes, Degree, the role fractions, key space and query stream
	// mirror ScaleConfig — the fixture is shared.
	Nodes            int
	Degree           int
	ProviderFraction float64
	ClientFraction   float64
	Keys             int
	KeysPerProvider  int
	Theta            float64
	Queries          int
	TTL              int
	// Policy is the base forward policy (pkg/search policy name).
	Policy string
	// Drop is the per-forwarded-copy loss probability in [0,1).
	Drop float64
	// CrashFraction of the population is dead for the whole cell:
	// removed from every policy selection and never answering.
	CrashFraction float64
	// Seed determines wiring, roles, holdings, the crash set, the loss
	// streams and the query stream.
	Seed uint64
}

// DefaultFaultsConfig returns the canonical faults cell: the scale
// family's role split at the given size, with the fault knobs zeroed.
func DefaultFaultsConfig(nodes, queries int, seed uint64) FaultsConfig {
	sc := DefaultScaleConfig(nodes, queries, seed)
	return FaultsConfig{
		Nodes:            sc.Nodes,
		Degree:           sc.Degree,
		ProviderFraction: sc.ProviderFraction,
		ClientFraction:   sc.ClientFraction,
		Keys:             sc.Keys,
		KeysPerProvider:  sc.KeysPerProvider,
		Theta:            sc.Theta,
		Queries:          sc.Queries,
		TTL:              sc.TTL,
		Policy:           "flood",
		Seed:             seed,
	}
}

// scaleConfig converts to the shared fixture's config.
func (c FaultsConfig) scaleConfig() ScaleConfig {
	return ScaleConfig{
		Nodes:            c.Nodes,
		Degree:           c.Degree,
		ProviderFraction: c.ProviderFraction,
		ClientFraction:   c.ClientFraction,
		Keys:             c.Keys,
		KeysPerProvider:  c.KeysPerProvider,
		Theta:            c.Theta,
		Queries:          c.Queries,
		TTL:              c.TTL,
		Seed:             c.Seed,
	}
}

// Validate reports configuration errors.
func (c FaultsConfig) Validate() error {
	if err := c.scaleConfig().Validate(); err != nil {
		return err
	}
	switch {
	case c.Policy == "":
		return fmt.Errorf("experiments: faults cell without a policy")
	case c.Drop < 0 || c.Drop >= 1:
		return fmt.Errorf("experiments: faults drop rate %v outside [0,1)", c.Drop)
	case c.CrashFraction < 0 || c.CrashFraction >= 0.5:
		return fmt.Errorf("experiments: faults crash fraction %v outside [0,0.5)", c.CrashFraction)
	}
	return nil
}

// FaultsSummary is the deterministic (JSON-stable) output of one
// faults cell.
type FaultsSummary struct {
	Nodes  int     `json:"nodes"`
	Policy string  `json:"policy"`
	Drop   float64 `json:"drop"`
	Crash  float64 `json:"crash_fraction"`
	// Crashed is the number of dead nodes; LiveClients the clients that
	// survived to issue queries.
	Crashed     int `json:"crashed"`
	LiveClients int `json:"live_clients"`
	// QueryStats covers the stream under the cell's faults.
	QueryStats
}

// The faults grid: every policy at every drop × crash combination.
// The zero-fault cell of each policy is the retention baseline.
var (
	faultsPolicies = []string{"flood", "random-2"}
	faultsDrops    = []float64{0, 0.05, 0.15}
	faultsCrashes  = []float64{0, 0.10}
)

// faultsNodes and faultsQueries size the grid per scale tier.
func faultsNodes(s Scale) int {
	if s == Full {
		return 20_000
	}
	return 5_000
}

func faultsQueries(s Scale) int {
	if s == Full {
		return 5_000
	}
	return 1_000
}

// faultsCellName is "<policy>-d<drop%>-c<crash%>" ("flood-d05-c10").
func faultsCellName(policy string, drop, crash float64) string {
	return fmt.Sprintf("%s-d%02d-c%02d", policy, int(drop*100+0.5), int(crash*100+0.5))
}

// FaultsCells returns the grid. Cells are independent, so each draws
// its own stable seed from its labels (worker-count invariant).
func FaultsCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	var cells []runner.Cell
	for _, policy := range faultsPolicies {
		for _, crash := range faultsCrashes {
			for _, drop := range faultsDrops {
				name := faultsCellName(policy, drop, crash)
				cfg := DefaultFaultsConfig(faultsNodes(scale), faultsQueries(scale),
					runner.DeriveSeed(seed, experiment, name))
				cfg.Policy = policy
				cfg.Drop = drop
				cfg.CrashFraction = crash
				cells = append(cells, cell(experiment, name, cfg,
					func(c *FaultsConfig) *uint64 { return &c.Seed }, RunFaults))
			}
		}
	}
	return cells
}

// downMask removes dead nodes from every policy selection: the
// engine-level analogue of the live fault plane blocking a crashed
// node's links.
type downMask struct {
	inner core.ForwardPolicy
	down  []bool
}

func (p *downMask) Select(q *core.Query, at, from topology.NodeID,
	out []topology.NodeID, led *stats.Ledger, dst []topology.NodeID) []topology.NodeID {
	sel := p.inner.Select(q, at, from, out, led, dst)
	keep := sel[:0]
	for _, t := range sel {
		if !p.down[t] {
			keep = append(keep, t)
		}
	}
	return keep
}

func (p *downMask) Name() string { return "downmask(" + p.inner.Name() + ")" }

// RunFaults executes one faults cell: the scale fixture with a
// seed-chosen crash set masked out of routing and serving, the base
// policy wrapped in deterministic per-link loss, and the query stream
// driven from the surviving clients. The summary is a pure function of
// the config.
func RunFaults(cfg FaultsConfig) (*FaultsSummary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fx, err := buildScaleFixture(cfg.scaleConfig())
	if err != nil {
		return nil, err
	}
	// Stream-split order after the fixture's own is load-bearing for
	// byte identity: classes, policy, crash — in that order.
	classes := netsim.AssignClasses(fx.root.Split().Intn, cfg.Nodes)
	polStream := fx.root.Split()
	crashStream := fx.root.Split()

	// The crash set: a seed-chosen fraction of the whole population,
	// dead for the cell's entire lifetime.
	down := make([]bool, cfg.Nodes)
	crashed := int(float64(cfg.Nodes) * cfg.CrashFraction)
	if crashed > 0 {
		perm := crashStream.Perm(cfg.Nodes)
		for _, id := range perm[:crashed] {
			down[id] = true
		}
	}

	base, err := search.PolicyByName(cfg.Policy, search.PolicyEnv{Intn: polStream.Intn})
	if err != nil {
		return nil, err
	}
	var forward core.ForwardPolicy = &downMask{inner: base, down: down}
	if cfg.Drop > 0 {
		forward = faults.NewLossyPolicy(forward, cfg.Drop,
			runner.DeriveSeed(cfg.Seed, "faults", "loss"))
	}

	// Dead providers answer nothing.
	alive := fx.content()
	content := core.ContentFunc(func(id topology.NodeID, key core.Key) bool {
		return !down[id] && alive.HasContent(id, key)
	})

	eng, err := search.New(
		search.Over(fx.net.Freeze(), content),
		search.WithForward(forward),
		search.WithSeed(cfg.Seed),
		search.WithTTL(cfg.TTL),
		search.WithDelay(fx.delayFunc(classes)))
	if err != nil {
		return nil, err
	}

	// Queries originate only at surviving clients.
	liveClients := make([]topology.NodeID, 0, len(fx.clientIDs))
	for _, id := range fx.clientIDs {
		if !down[id] {
			liveClients = append(liveClients, id)
		}
	}
	if len(liveClients) == 0 {
		return nil, fmt.Errorf("experiments: faults cell crashed every client")
	}

	sum := &FaultsSummary{
		Nodes:       cfg.Nodes,
		Policy:      cfg.Policy,
		Drop:        cfg.Drop,
		Crash:       cfg.CrashFraction,
		Crashed:     crashed,
		LiveClients: len(liveClients),
	}
	if err := fx.runQueries(eng, liveClients, &sum.QueryStats, 0, cfg.Queries); err != nil {
		return nil, err
	}
	sum.finish()
	return sum, nil
}

// FaultsTable renders the grid with each row's hit-rate retention
// against its policy's zero-fault baseline.
func FaultsTable(sums []*FaultsSummary) *metrics.Table {
	baseline := map[string]float64{}
	for _, s := range sums {
		if s.Drop == 0 && s.Crash == 0 {
			baseline[s.Policy] = s.HitRate
		}
	}
	t := metrics.NewTable("Faults: hit-rate retention under message loss x node crashes",
		"policy", "drop", "crash", "hit_rate", "retention", "msgs/query", "p95_ms")
	for _, s := range sums {
		retention := 0.0
		if b := baseline[s.Policy]; b > 0 {
			retention = s.HitRate / b
		}
		t.AddRow(s.Policy, s.Drop, s.Crash, s.HitRate, retention, s.MsgsPerQuery, s.DelayP95Ms)
	}
	return t
}
