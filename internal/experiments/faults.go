package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/perf"
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
// worker count, while wall-clock throughput (the degraded-mode
// queries/sec headline) goes to the BENCH_faults.json side channel.

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
	// Policy is the base forward policy (pkg/search registry name).
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
	Queries     int `json:"queries"`
	Hits        int `json:"hits"`
	// HitRate = Hits/Queries under the cell's faults.
	HitRate       float64 `json:"hit_rate"`
	Messages      uint64  `json:"messages"`
	ReplyMessages uint64  `json:"reply_messages"`
	MsgsPerQuery  float64 `json:"msgs_per_query"`
	VisitedMean   float64 `json:"visited_mean"`
	DelayP50Ms    float64 `json:"delay_p50_ms"`
	DelayP95Ms    float64 `json:"delay_p95_ms"`
	DelayP99Ms    float64 `json:"delay_p99_ms"`
}

// FaultsPerfSample is the wall-clock side channel of one faults cell.
type FaultsPerfSample struct {
	WallSeconds float64
	Queries     int
	Events      uint64
}

// FaultsPerf collects the non-deterministic measurements of a faults
// run, keyed by cell name. Safe for concurrent cells.
type FaultsPerf struct {
	mu      sync.Mutex
	samples map[string]FaultsPerfSample
}

// NewFaultsPerf returns an empty collector.
func NewFaultsPerf() *FaultsPerf {
	return &FaultsPerf{samples: make(map[string]FaultsPerfSample)}
}

func (p *FaultsPerf) record(cell string, s FaultsPerfSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[cell] = s
}

// Report renders the collected samples plus the deterministic per-cell
// metrics as a BENCH_faults.json document. The degraded-mode cells'
// queries/sec is the headline.
func (p *FaultsPerf) Report(rs []runner.Result) (*perf.Report, error) {
	rep := perf.NewReport("faults-experiment")
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range rs {
		if r.Experiment != "faults" {
			continue
		}
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: faults cell %s failed: %s", r.Cell, r.Err)
		}
		sum, ok := r.Value.(*FaultsSummary)
		if !ok {
			return nil, fmt.Errorf("experiments: faults cell %s has value %T", r.Cell, r.Value)
		}
		m := map[string]float64{
			"hit-rate":     sum.HitRate,
			"msgs/query":   sum.MsgsPerQuery,
			"delay_p95_ms": sum.DelayP95Ms,
		}
		if s, ok := p.samples[r.Cell]; ok && s.WallSeconds > 0 && s.Queries > 0 {
			m["queries/sec"] = float64(s.Queries) / s.WallSeconds
			m["events/sec"] = float64(s.Events) / s.WallSeconds
			m["wall_seconds"] = s.WallSeconds
		}
		rep.Add("faults/"+r.Cell, m)
	}
	return rep, nil
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

// FaultsCells returns the grid plus the collector that receives each
// cell's wall-clock measurements. Cells are independent, so each draws
// its own stable seed from its labels (worker-count invariant).
func FaultsCells(experiment string, scale Scale, seed uint64) ([]runner.Cell, *FaultsPerf) {
	collector := NewFaultsPerf()
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
				cellName := name
				cells = append(cells, runner.Cell{
					Experiment: experiment,
					Name:       name,
					Seed:       cfg.Seed,
					Run: func(_ context.Context, cellSeed uint64) (any, error) {
						c := cfg
						c.Seed = cellSeed
						sum, sample, err := RunFaults(c)
						if err != nil {
							return nil, err
						}
						collector.record(cellName, sample)
						return sum, nil
					},
				})
			}
		}
	}
	return cells, collector
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
func RunFaults(cfg FaultsConfig) (*FaultsSummary, FaultsPerfSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, FaultsPerfSample{}, err
	}
	fx, err := buildScaleFixture(cfg.scaleConfig())
	if err != nil {
		return nil, FaultsPerfSample{}, err
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
		return nil, FaultsPerfSample{}, err
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

	csr := fx.net.Freeze()
	delayStream := fx.delay
	eng, err := search.New(
		search.Over(csr, content),
		search.WithForward(forward),
		search.WithSeed(cfg.Seed),
		search.WithTTL(cfg.TTL),
		search.WithScratchHint(cfg.Nodes),
		search.WithDelay(func(from, to topology.NodeID) float64 {
			return netsim.OneWayDelay(delayStream, classes[from], classes[to])
		}))
	if err != nil {
		return nil, FaultsPerfSample{}, err
	}

	// Queries originate only at surviving clients.
	liveClients := make([]topology.NodeID, 0, len(fx.clientIDs))
	for _, id := range fx.clientIDs {
		if !down[id] {
			liveClients = append(liveClients, id)
		}
	}
	if len(liveClients) == 0 {
		return nil, FaultsPerfSample{}, fmt.Errorf("experiments: faults cell crashed every client")
	}

	sum := &FaultsSummary{
		Nodes:       cfg.Nodes,
		Policy:      cfg.Policy,
		Drop:        cfg.Drop,
		Crash:       cfg.CrashFraction,
		Crashed:     crashed,
		LiveClients: len(liveClients),
		Queries:     cfg.Queries,
	}
	delays := make([]float64, 0, cfg.Queries)
	visitedSum := 0
	ctx := context.Background()
	start := time.Now()
	for q := 0; q < cfg.Queries; q++ {
		origin := liveClients[fx.query.Intn(len(liveClients))]
		key := core.Key(fx.zipf.Index(fx.query))
		outcome, err := eng.Do(ctx, search.Query{
			ID:     uint64(q + 1),
			Key:    key,
			Origin: origin,
		})
		if err != nil {
			return nil, FaultsPerfSample{}, err
		}
		sum.Messages += outcome.Messages
		sum.ReplyMessages += outcome.ReplyMessages
		visitedSum += outcome.Visited
		if outcome.Found() {
			sum.Hits++
			delays = append(delays, outcome.FirstResultDelay)
		}
	}
	wall := time.Since(start)

	sum.HitRate = float64(sum.Hits) / float64(sum.Queries)
	sum.MsgsPerQuery = float64(sum.Messages) / float64(sum.Queries)
	sum.VisitedMean = float64(visitedSum) / float64(sum.Queries)
	sort.Float64s(delays)
	sum.DelayP50Ms = quantileMs(delays, 0.50)
	sum.DelayP95Ms = quantileMs(delays, 0.95)
	sum.DelayP99Ms = quantileMs(delays, 0.99)

	sample := FaultsPerfSample{
		WallSeconds: wall.Seconds(),
		Queries:     cfg.Queries,
		Events:      sum.Messages + sum.ReplyMessages,
	}
	return sum, sample, nil
}

// AssembleFaults validates the results of FaultsCells into summaries,
// in grid order.
func AssembleFaults(rs []runner.Result) ([]*FaultsSummary, error) {
	out := make([]*FaultsSummary, len(rs))
	for i, r := range rs {
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: cell %s/%s failed: %s", r.Experiment, r.Cell, r.Err)
		}
		sum, ok := r.Value.(*FaultsSummary)
		if !ok {
			return nil, fmt.Errorf("experiments: cell %s/%s has value %T, want *FaultsSummary",
				r.Experiment, r.Cell, r.Value)
		}
		out[i] = sum
	}
	return out, nil
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

// faultsDefinition wires the faults family into the registry.
func faultsDefinition(scale Scale, seed uint64) Definition {
	cells, collector := FaultsCells("faults", scale, seed)
	return Definition{
		Name:  "faults",
		About: "Robustness: hit-rate retention under drop-rate x crash-rate x policy",
		Cells: cells,
		Tables: func(rs []runner.Result) ([]*metrics.Table, error) {
			sums, err := AssembleFaults(rs)
			if err != nil {
				return nil, err
			}
			return []*metrics.Table{FaultsTable(sums)}, nil
		},
		Perf: collector.Report,
	}
}
