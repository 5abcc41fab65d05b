package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/pkg/search"
)

// The scale experiment family stresses the cascade engine itself at
// network sizes far beyond the paper's 2,000 users: N ∈ {1k, 10k,
// 100k, 1M} nodes split into the client/provider/bystander roles of
// content-routing testplans (clients issue queries, providers hold the
// content, bystanders only route). Unlike the gnutella experiments it
// has no churn or reconfiguration — it isolates the per-query hot path
// (CSR topology snapshots, flat-slice visited sets, pooled Scratch,
// the monotone event queue) so its numbers move only when the
// engine does.
//
// Each cell's deterministic outcome (message counts, hit rate, delay
// percentiles) lands in runs/<name>/cells.json like every other
// experiment. The family carries no wall-clock numbers: the engine's
// speed is measured by benchmarks/dbench (core.cascade_us_per_query,
// topology.freeze_ms, ...), with samples and an environment stamp.

// ScaleConfig parameterizes one scale cell.
type ScaleConfig struct {
	// Nodes is the network size.
	Nodes int
	// Degree is the per-node neighbor capacity (symmetric regime).
	Degree int
	// ProviderFraction and ClientFraction split the population;
	// the remainder are bystanders that only route.
	ProviderFraction, ClientFraction float64
	// Keys is the size of the content key space; each provider holds
	// KeysPerProvider keys Zipf-sampled (skew Theta) from it.
	Keys, KeysPerProvider int
	Theta                 float64
	// Queries is how many searches the cell drives.
	Queries int
	// TTL bounds each search.
	TTL int
	// Policy selects the forward policy by pkg/search policy name;
	// empty means "flood" (the canonical cells). random-<k> policies
	// draw per-query streams derived from Seed, so any policy keeps the
	// cell a pure function of its config.
	Policy string
	// Seed determines wiring, roles, holdings and the query stream.
	Seed uint64
}

// DefaultScaleConfig returns the canonical cell at the given network
// size: degree 4 (the paper's neighbor cap), 10% providers, 30%
// clients, a key space that grows with the network (so hit rates stay
// comparable across sizes) and Zipf(0.9) popularity.
func DefaultScaleConfig(nodes, queries int, seed uint64) ScaleConfig {
	return ScaleConfig{
		Nodes:            nodes,
		Degree:           4,
		ProviderFraction: 0.10,
		ClientFraction:   0.30,
		Keys:             nodes / 2,
		KeysPerProvider:  16,
		Theta:            0.9,
		Queries:          queries,
		TTL:              4,
		Seed:             seed,
	}
}

// Validate reports configuration errors.
func (c ScaleConfig) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("experiments: scale with %d nodes", c.Nodes)
	case c.Degree < 1:
		return fmt.Errorf("experiments: scale degree %d", c.Degree)
	case !(c.ProviderFraction > 0) || !(c.ClientFraction > 0) ||
		!(c.ProviderFraction+c.ClientFraction <= 1):
		return fmt.Errorf("experiments: scale fractions %v+%v invalid",
			c.ProviderFraction, c.ClientFraction)
	case c.Keys < 1 || c.KeysPerProvider < 1:
		return fmt.Errorf("experiments: scale key space %d/%d", c.Keys, c.KeysPerProvider)
	case c.KeysPerProvider > c.Keys:
		// The holdings sampler collects distinct keys; more holdings
		// than keys could never terminate.
		return fmt.Errorf("experiments: scale holdings %d exceed the %d-key space",
			c.KeysPerProvider, c.Keys)
	case badTheta(c.Theta):
		return fmt.Errorf("experiments: scale theta %v", c.Theta)
	case c.Queries < 1:
		return fmt.Errorf("experiments: scale with %d queries", c.Queries)
	case c.TTL < 1:
		return fmt.Errorf("experiments: scale TTL %d", c.TTL)
	}
	return nil
}

// badTheta reports a Zipf exponent the samplers cannot use: negative
// panics rng.NewZipf, and NaN or +Inf collapses every draw onto one
// key, so a distinct-key holdings loop never ends. Written so that NaN
// is bad.
func badTheta(theta float64) bool { return !(theta >= 0) || math.IsInf(theta, 1) }

// ScaleSummary is the deterministic (JSON-stable) output of one scale
// cell — the `value` schema of scale cells in cells.json.
type ScaleSummary struct {
	Nodes      int `json:"nodes"`
	Clients    int `json:"clients"`
	Providers  int `json:"providers"`
	Bystanders int `json:"bystanders"`
	Edges      int `json:"edges"`
	QueryStats
}

// QueryStats tallies a stream of searches: the block of cells.json that
// every query-driving family (scale, policies, skew, faults) reports.
type QueryStats struct {
	// Queries counts issued searches; Hits the satisfied subset, and
	// HitRate = Hits/Queries.
	Queries int     `json:"queries"`
	Hits    int     `json:"hits"`
	HitRate float64 `json:"hit_rate"`
	// Messages and ReplyMessages total the query propagations and
	// reverse-route reply hops over all queries.
	Messages      uint64  `json:"messages"`
	ReplyMessages uint64  `json:"reply_messages"`
	MsgsPerQuery  float64 `json:"msgs_per_query"`
	// VisitedMean is the mean number of distinct repositories that
	// processed each query.
	VisitedMean float64 `json:"visited_mean"`
	// DelayP50Ms/P95Ms/P99Ms are first-result delay percentiles over
	// satisfied queries, in milliseconds.
	DelayP50Ms float64 `json:"delay_p50_ms"`
	DelayP95Ms float64 `json:"delay_p95_ms"`
	DelayP99Ms float64 `json:"delay_p99_ms"`

	// visited and delays accumulate until finish folds them in.
	visited int
	delays  []float64
}

// tally adds one search to the stream and reports whether it hit.
func (s *QueryStats) tally(out search.Result) bool {
	s.Queries++
	s.Messages += out.Messages
	s.ReplyMessages += out.ReplyMessages
	s.visited += out.Visited
	if !out.Found() {
		return false
	}
	s.Hits++
	s.delays = append(s.delays, out.FirstResultDelay)
	return true
}

// finish folds the tallies into rates and percentiles.
func (s *QueryStats) finish() {
	if s.Queries > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Queries)
		s.MsgsPerQuery = float64(s.Messages) / float64(s.Queries)
		s.VisitedMean = float64(s.visited) / float64(s.Queries)
	}
	sort.Float64s(s.delays)
	s.DelayP50Ms = quantileMs(s.delays, 0.50)
	s.DelayP95Ms = quantileMs(s.delays, 0.95)
	s.DelayP99Ms = quantileMs(s.delays, 0.99)
	s.delays = nil
}

// scaleSizes is the sweep of the scale experiment family.
var scaleSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// scaleQueries returns the per-cell query count: enough work to
// measure throughput without dominating CI wall-clock.
func scaleQueries(s Scale) int {
	if s == Full {
		return 20_000
	}
	return 2_000
}

// ScaleCells returns one cell per network size.
func ScaleCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	cells := make([]runner.Cell, 0, len(scaleSizes))
	for _, n := range scaleSizes {
		name := fmt.Sprintf("n%d", n)
		cfg := DefaultScaleConfig(n, scaleQueries(scale), runner.DeriveSeed(seed, experiment, name))
		cells = append(cells, cell(experiment, name, cfg, scaleSeed, RunScale))
	}
	return cells
}

// scaleSeed points cell at a ScaleConfig's seed.
func scaleSeed(c *ScaleConfig) *uint64 { return &c.Seed }

// scaleFixture is the engine-less part of a scale world: the wired
// network, roles, holdings and streams. RunFaults builds its own
// engine on it; buildScaleWorld layers the delay model and CSR engine
// on top. The stream-split order here is load-bearing: it must not
// change, or every scale and faults cells.json shifts.
type scaleFixture struct {
	net       *topology.Network
	clientIDs []topology.NodeID
	holdings  []map[core.Key]struct{}
	zipf      *rng.Zipf
	providers int
	root      *rng.Stream
	query     *rng.Stream
	delay     *rng.Stream
}

// buildScaleFixture wires, partitions and stocks one cell's network.
// Everything is a pure function of cfg.
func buildScaleFixture(cfg ScaleConfig) (*scaleFixture, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	wireStream := root.Split()
	roleStream := root.Split()
	holdStream := root.Split()
	queryStream := root.Split()
	delayStream := root.Split()

	n := cfg.Nodes
	net := topology.NewNetwork(topology.Symmetric, n, cfg.Degree, cfg.Degree)
	scaleWire(net, cfg.Degree, wireStream)

	// Role assignment: a random permutation split into providers,
	// clients, bystanders.
	perm := roleStream.Perm(n)
	providers := int(float64(n) * cfg.ProviderFraction)
	clients := int(float64(n) * cfg.ClientFraction)
	if providers < 1 {
		providers = 1
	}
	if clients < 1 {
		clients = 1
	}
	clientIDs := make([]topology.NodeID, clients)
	for i := 0; i < clients; i++ {
		clientIDs[i] = topology.NodeID(perm[providers+i])
	}

	// Provider holdings: KeysPerProvider Zipf-sampled keys each,
	// stored per node for O(1) membership on the hot path.
	holdings := make([]map[core.Key]struct{}, n)
	zipf := rng.NewZipf(cfg.Keys, cfg.Theta)
	for i := 0; i < providers; i++ {
		id := perm[i]
		h := make(map[core.Key]struct{}, cfg.KeysPerProvider)
		for len(h) < cfg.KeysPerProvider {
			h[core.Key(zipf.Index(holdStream))] = struct{}{}
		}
		holdings[id] = h
	}
	return &scaleFixture{
		net:       net,
		clientIDs: clientIDs,
		holdings:  holdings,
		zipf:      zipf,
		providers: providers,
		root:      root,
		query:     queryStream,
		delay:     delayStream,
	}, nil
}

// content returns the fixture's membership oracle. Pure and immutable,
// hence safe for saturated concurrent searches.
func (fx *scaleFixture) content() core.ContentFunc {
	holdings := fx.holdings
	return func(id topology.NodeID, key core.Key) bool {
		_, ok := holdings[id][key]
		return ok
	}
}

// scaleWorld is the deterministic fixture of one scale cell: the
// fixture plus its frozen snapshot and the engine searching it.
type scaleWorld struct {
	*scaleFixture
	csr *topology.CSR
	eng *search.Engine
}

// buildScaleWorld wires, partitions and freezes one cell's network and
// constructs its engine over the CSR snapshot. Everything is a pure
// function of cfg.
func buildScaleWorld(cfg ScaleConfig) (*scaleWorld, error) {
	fx, err := buildScaleFixture(cfg)
	if err != nil {
		return nil, err
	}
	classes := netsim.AssignClasses(fx.root.Split().Intn, cfg.Nodes)
	policy := cfg.Policy
	if policy == "" {
		policy = "flood"
	}
	// The engine searches the frozen CSR snapshot, not the mutable
	// network: the cascade core devirtualizes neighbor lookup on it.
	csr := fx.net.Freeze()
	eng, err := search.New(
		search.Over(csr, fx.content()),
		search.WithPolicy(policy),
		search.WithSeed(cfg.Seed),
		search.WithTTL(cfg.TTL),
		search.WithDelay(fx.delayFunc(classes)))
	if err != nil {
		return nil, err
	}
	return &scaleWorld{scaleFixture: fx, csr: csr, eng: eng}, nil
}

// delayFunc is the netsim one-way delay between two nodes' bandwidth
// classes, drawn from the fixture's delay stream.
func (fx *scaleFixture) delayFunc(classes []netsim.BandwidthClass) core.DelayFunc {
	return func(from, to topology.NodeID) float64 {
		return netsim.OneWayDelay(fx.delay, classes[from], classes[to])
	}
}

// runQueries drives queries [first, first+count) through eng, each from
// a uniform origin among origins to a Zipf key. Both come from the
// fixture's query stream, origin first — an order every scale and
// faults cells.json depends on.
func (fx *scaleFixture) runQueries(eng *search.Engine, origins []topology.NodeID, st *QueryStats, first, count int) error {
	ctx := context.Background()
	for q := first; q < first+count; q++ {
		origin := origins[fx.query.Intn(len(origins))]
		key := core.Key(fx.zipf.Index(fx.query))
		out, err := eng.Do(ctx, search.Query{ID: uint64(q + 1), Key: key, Origin: origin})
		if err != nil {
			return err
		}
		st.tally(out)
	}
	return nil
}

// RunScale executes one scale cell: build the role-partitioned network,
// freeze its CSR snapshot, drive the configured number of cascades
// through the pooled engine, and summarize. The summary is a pure
// function of the config.
func RunScale(cfg ScaleConfig) (*ScaleSummary, error) {
	w, err := buildScaleWorld(cfg)
	if err != nil {
		return nil, err
	}
	sum := &ScaleSummary{
		Nodes:      cfg.Nodes,
		Clients:    len(w.clientIDs),
		Providers:  w.providers,
		Bystanders: cfg.Nodes - len(w.clientIDs) - w.providers,
		Edges:      w.csr.EdgeCount(),
	}
	if err := w.runQueries(w.eng, w.clientIDs, &sum.QueryStats, 0, cfg.Queries); err != nil {
		return nil, err
	}
	sum.finish()
	return sum, nil
}

// quantileMs returns the q-quantile of sorted (ascending) delays, in
// milliseconds; 0 when empty (no satisfied queries).
func quantileMs(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i] * 1000
}

// scaleWire attaches every node to up to degree random peers in O(N *
// degree): bounded random probing instead of topology.RandomWire's
// per-node permutation of the full candidate set, which is quadratic
// and prohibitive at 100k nodes. Nodes are processed in ID order and
// all randomness comes from s, so the wiring is a pure function of the
// seed. A node whose probes all land on full peers ends under-degree —
// the same shortfall a late-joining Gnutella node sees.
func scaleWire(net *topology.Network, degree int, s *rng.Stream) {
	n := net.Len()
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		need := degree - net.Node(id).Out.Len()
		for attempts := 8 * degree; need > 0 && attempts > 0; attempts-- {
			c := topology.NodeID(s.Intn(n))
			if c == id {
				continue
			}
			if net.Connect(id, c) {
				need--
			}
		}
	}
}

// ScaleTable renders the scale sweep.
func ScaleTable(sums []*ScaleSummary) *metrics.Table {
	t := metrics.NewTable("Scale: cascade engine at 1k-100k nodes (clients/providers/bystanders)",
		"nodes", "clients", "providers", "hit_rate", "msgs/query", "visited", "p50_ms", "p95_ms", "p99_ms")
	for _, s := range sums {
		t.AddRow(s.Nodes, s.Clients, s.Providers, s.HitRate, s.MsgsPerQuery, s.VisitedMean,
			s.DelayP50Ms, s.DelayP95Ms, s.DelayP99Ms)
	}
	return t
}
