package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/perf"
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
// engine does. The refreeze cell is the exception that proves the
// snapshot contract: it churns edges between epochs and re-freezes the
// CSR in place, measuring what a reconfiguration epoch costs the hot
// path.
//
// Each cell's deterministic outcome (message counts, hit rate, delay
// percentiles) lands in runs/<name>/cells.json like every other
// experiment; the wall-clock measurements (events/sec, allocs/query)
// go to a side channel that cmd/repro writes as BENCH_scale.json via
// internal/perf — those depend on the machine and on how many sibling
// cells run concurrently, so they must stay out of the byte-comparable
// artifact. For clean allocs/query, run the bench job with -workers 1.

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
	// Policy selects the forward policy by pkg/search registry name;
	// empty means "flood" (the canonical cells). Stochastic families
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
	case c.ProviderFraction <= 0 || c.ClientFraction <= 0 ||
		c.ProviderFraction+c.ClientFraction > 1:
		return fmt.Errorf("experiments: scale fractions %v+%v invalid",
			c.ProviderFraction, c.ClientFraction)
	case c.Keys < 1 || c.KeysPerProvider < 1:
		return fmt.Errorf("experiments: scale key space %d/%d", c.Keys, c.KeysPerProvider)
	case c.Queries < 1:
		return fmt.Errorf("experiments: scale with %d queries", c.Queries)
	case c.TTL < 1:
		return fmt.Errorf("experiments: scale TTL %d", c.TTL)
	}
	return nil
}

// ScaleSummary is the deterministic (JSON-stable) output of one scale
// cell — the `value` schema of scale cells in cells.json.
type ScaleSummary struct {
	Nodes      int `json:"nodes"`
	Clients    int `json:"clients"`
	Providers  int `json:"providers"`
	Bystanders int `json:"bystanders"`
	Edges      int `json:"edges"`
	Queries    int `json:"queries"`
	// Hits counts satisfied queries; HitRate = Hits/Queries.
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
}

// ScalePerfSample is the wall-clock side channel of one cell: the
// machine-dependent measurements that stay out of cells.json.
type ScalePerfSample struct {
	// WallSeconds is the query loop's execution time (excluding the
	// network build).
	WallSeconds float64
	// Events counts messages plus reply hops processed in the loop.
	Events uint64
	// Allocs counts heap allocations during the loop (runtime.MemStats
	// deltas: an upper bound when sibling cells run concurrently).
	Allocs uint64
	// Queries is the number of searches driven.
	Queries int
	// RefreezeSeconds totals the time spent re-freezing the CSR
	// snapshot after churn epochs; Refreezes counts the re-freezes.
	// Both are zero for the static cells.
	RefreezeSeconds float64
	Refreezes       int
}

// ScalePerf collects the non-deterministic measurements of a scale
// run, keyed by cell name. It is safe for concurrent cells.
type ScalePerf struct {
	mu      sync.Mutex
	samples map[string]ScalePerfSample
}

// NewScalePerf returns an empty collector.
func NewScalePerf() *ScalePerf {
	return &ScalePerf{samples: make(map[string]ScalePerfSample)}
}

func (p *ScalePerf) record(cell string, s ScalePerfSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[cell] = s
}

// Report renders the collected samples plus the deterministic
// per-cell metrics as a BENCH_scale.json document.
func (p *ScalePerf) Report(rs []runner.Result) (*perf.Report, error) {
	rep := perf.NewReport("scale-experiment")
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range rs {
		if r.Experiment != "scale" {
			continue
		}
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: scale cell %s failed: %s", r.Cell, r.Err)
		}
		sum, ok := r.Value.(*ScaleSummary)
		if !ok {
			return nil, fmt.Errorf("experiments: scale cell %s has value %T", r.Cell, r.Value)
		}
		m := map[string]float64{
			"msgs/query":   sum.MsgsPerQuery,
			"hit-rate":     sum.HitRate,
			"delay_p50_ms": sum.DelayP50Ms,
			"delay_p95_ms": sum.DelayP95Ms,
			"delay_p99_ms": sum.DelayP99Ms,
		}
		if s, ok := p.samples[r.Cell]; ok && s.WallSeconds > 0 && s.Queries > 0 {
			m["events/sec"] = float64(s.Events) / s.WallSeconds
			m["allocs/query"] = float64(s.Allocs) / float64(s.Queries)
			m["wall_seconds"] = s.WallSeconds
			if s.Refreezes > 0 {
				m["refreeze_ms"] = s.RefreezeSeconds / float64(s.Refreezes) * 1000
			}
		}
		rep.Add("scale/"+r.Cell, m)
	}
	return rep, nil
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

// Refreeze-cell shape: the 100k network re-frozen after churn epochs.
// Each epoch rewires refreezeChurn edges, re-freezes the CSR snapshot
// in place, and drives its share of the cell's queries over the fresh
// snapshot.
const (
	refreezeNodes  = 100_000
	refreezeEpochs = 8
	refreezeChurn  = 1_000
)

// ScaleCells returns one cell per network size, plus the refreeze cell,
// plus the collector that receives each cell's wall-clock measurements.
func ScaleCells(experiment string, scale Scale, seed uint64) ([]runner.Cell, *ScalePerf) {
	collector := NewScalePerf()
	cells := make([]runner.Cell, 0, len(scaleSizes)+1)
	for _, n := range scaleSizes {
		name := fmt.Sprintf("n%d", n)
		cfg := DefaultScaleConfig(n, scaleQueries(scale), runner.DeriveSeed(seed, experiment, name))
		cells = append(cells, runner.Cell{
			Experiment: experiment,
			Name:       name,
			Seed:       cfg.Seed,
			Run: func(_ context.Context, cellSeed uint64) (any, error) {
				c := cfg
				c.Seed = cellSeed
				sum, sample, err := RunScale(c)
				if err != nil {
					return nil, err
				}
				collector.record(name, sample)
				return sum, nil
			},
		})
	}
	refreeze := fmt.Sprintf("refreeze-n%d", refreezeNodes)
	refreezeCfg := DefaultScaleConfig(refreezeNodes, scaleQueries(scale),
		runner.DeriveSeed(seed, experiment, refreeze))
	cells = append(cells, runner.Cell{
		Experiment: experiment,
		Name:       refreeze,
		Seed:       refreezeCfg.Seed,
		Run: func(_ context.Context, cellSeed uint64) (any, error) {
			c := refreezeCfg
			c.Seed = cellSeed
			sum, sample, err := RunRefreeze(c, refreezeEpochs, refreezeChurn)
			if err != nil {
				return nil, err
			}
			collector.record(refreeze, sample)
			return sum, nil
		},
	})
	return cells, collector
}

// scaleFixture is the engine-less part of a scale world: the wired
// network, roles, holdings and streams. The churnserve family shares it
// (with its own engines); buildScaleWorld layers the delay model and
// CSR engine on top. The stream-split order here is load-bearing: it
// must not change, or every scale cells.json shifts.
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

// scaleWorld is the deterministic fixture of one scale cell: the wired
// network with its frozen snapshot, roles, holdings and the streams the
// query loop consumes.
type scaleWorld struct {
	net       *topology.Network
	csr       *topology.CSR
	clientIDs []topology.NodeID
	holdings  []map[core.Key]struct{}
	zipf      *rng.Zipf
	providers int
	root      *rng.Stream
	query     *rng.Stream
	eng       *search.Engine
}

// buildScaleWorld wires, partitions and freezes one cell's network and
// constructs its engine over the CSR snapshot. Everything is a pure
// function of cfg.
func buildScaleWorld(cfg ScaleConfig) (*scaleWorld, error) {
	fx, err := buildScaleFixture(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Nodes
	classes := netsim.AssignClasses(fx.root.Split().Intn, n)
	policy := cfg.Policy
	if policy == "" {
		policy = "flood"
	}
	// The engine searches the frozen CSR snapshot, not the mutable
	// network: the cascade core devirtualizes neighbor lookup on it.
	// RunRefreeze re-freezes the same *CSR in place after churn epochs,
	// which the engine sees through the shared pointer.
	csr := fx.net.Freeze()
	delayStream := fx.delay
	eng, err := search.New(
		search.Over(csr, fx.content()),
		search.WithPolicy(policy),
		search.WithSeed(cfg.Seed),
		search.WithTTL(cfg.TTL),
		search.WithScratchHint(n),
		search.WithDelay(func(from, to topology.NodeID) float64 {
			return netsim.OneWayDelay(delayStream, classes[from], classes[to])
		}))
	if err != nil {
		return nil, err
	}
	return &scaleWorld{
		net:       fx.net,
		csr:       csr,
		clientIDs: fx.clientIDs,
		holdings:  fx.holdings,
		zipf:      fx.zipf,
		providers: fx.providers,
		root:      fx.root,
		query:     fx.query,
		eng:       eng,
	}, nil
}

// runQueries drives queries [first, first+count) of the cell through
// the world's engine, accumulating into sum and delays.
func (w *scaleWorld) runQueries(sum *ScaleSummary, delays *[]float64, visitedSum *int, first, count int) error {
	ctx := context.Background()
	for q := first; q < first+count; q++ {
		origin := w.clientIDs[w.query.Intn(len(w.clientIDs))]
		key := core.Key(w.zipf.Index(w.query))
		outcome, err := w.eng.Do(ctx, search.Query{
			ID:     uint64(q + 1),
			Key:    key,
			Origin: origin,
		})
		if err != nil {
			return err
		}
		sum.Messages += outcome.Messages
		sum.ReplyMessages += outcome.ReplyMessages
		*visitedSum += outcome.Visited
		if outcome.Found() {
			sum.Hits++
			*delays = append(*delays, outcome.FirstResultDelay)
		}
	}
	return nil
}

// finish folds the accumulated tallies into the summary's rates and
// percentiles.
func (sum *ScaleSummary) finish(delays []float64, visitedSum int) {
	sum.HitRate = float64(sum.Hits) / float64(sum.Queries)
	sum.MsgsPerQuery = float64(sum.Messages) / float64(sum.Queries)
	sum.VisitedMean = float64(visitedSum) / float64(sum.Queries)
	sort.Float64s(delays)
	sum.DelayP50Ms = quantileMs(delays, 0.50)
	sum.DelayP95Ms = quantileMs(delays, 0.95)
	sum.DelayP99Ms = quantileMs(delays, 0.99)
}

// RunScale executes one scale cell: build the role-partitioned network,
// freeze its CSR snapshot, drive the configured number of cascades
// through the pooled engine, and summarize. The summary is a pure
// function of the config; the returned sample carries the wall-clock
// side measurements.
func RunScale(cfg ScaleConfig) (*ScaleSummary, ScalePerfSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, ScalePerfSample{}, err
	}
	w, err := buildScaleWorld(cfg)
	if err != nil {
		return nil, ScalePerfSample{}, err
	}
	sum := &ScaleSummary{
		Nodes:      cfg.Nodes,
		Clients:    len(w.clientIDs),
		Providers:  w.providers,
		Bystanders: cfg.Nodes - len(w.clientIDs) - w.providers,
		Edges:      w.csr.EdgeCount(),
		Queries:    cfg.Queries,
	}
	delays := make([]float64, 0, cfg.Queries)
	visitedSum := 0

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if err := w.runQueries(sum, &delays, &visitedSum, 0, cfg.Queries); err != nil {
		return nil, ScalePerfSample{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	sum.finish(delays, visitedSum)
	sample := ScalePerfSample{
		WallSeconds: wall.Seconds(),
		Events:      sum.Messages + sum.ReplyMessages,
		Allocs:      ms1.Mallocs - ms0.Mallocs,
		Queries:     cfg.Queries,
	}
	return sum, sample, nil
}

// RunRefreeze executes the refreeze cell: the same world as RunScale,
// but the query budget is split across epochs and every epoch rewires
// churn edges of the mutable network and re-freezes the CSR snapshot
// in place (topology.FreezeInto — zero allocations at steady state)
// before its queries run. The summary is a pure function of (cfg,
// epochs, churn); the sample's RefreezeSeconds/Refreezes record what a
// reconfiguration epoch costs the hot path.
func RunRefreeze(cfg ScaleConfig, epochs, churn int) (*ScaleSummary, ScalePerfSample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, ScalePerfSample{}, err
	}
	if epochs < 1 || cfg.Queries < epochs {
		return nil, ScalePerfSample{}, fmt.Errorf("experiments: refreeze with %d epochs over %d queries", epochs, cfg.Queries)
	}
	w, err := buildScaleWorld(cfg)
	if err != nil {
		return nil, ScalePerfSample{}, err
	}
	churnStream := w.root.Split()
	sum := &ScaleSummary{
		Nodes:      cfg.Nodes,
		Clients:    len(w.clientIDs),
		Providers:  w.providers,
		Bystanders: cfg.Nodes - len(w.clientIDs) - w.providers,
		Queries:    cfg.Queries,
	}
	delays := make([]float64, 0, cfg.Queries)
	visitedSum := 0
	perEpoch := cfg.Queries / epochs

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	sample := ScalePerfSample{}
	done := 0
	for e := 0; e < epochs; e++ {
		scaleChurn(w.net, churn, churnStream)
		t0 := time.Now()
		w.net.FreezeInto(w.csr)
		sample.RefreezeSeconds += time.Since(t0).Seconds()
		sample.Refreezes++
		count := perEpoch
		if e == epochs-1 {
			count = cfg.Queries - done // remainder rides the last epoch
		}
		if err := w.runQueries(sum, &delays, &visitedSum, done, count); err != nil {
			return nil, ScalePerfSample{}, err
		}
		done += count
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	sum.Edges = w.csr.EdgeCount() // post-churn: the snapshot the last epoch searched
	sum.finish(delays, visitedSum)
	sample.WallSeconds = wall.Seconds()
	sample.Events = sum.Messages + sum.ReplyMessages
	sample.Allocs = ms1.Mallocs - ms0.Mallocs
	sample.Queries = cfg.Queries
	return sum, sample, nil
}

// scaleChurn rewires up to count edges: each step disconnects one
// random existing edge and reconnects its source to a random peer (the
// unilateral neighbor change of a reconfiguration epoch, without the
// benefit machinery). All randomness comes from s.
func scaleChurn(net *topology.Network, count int, s *rng.Stream) {
	n := net.Len()
	for i := 0; i < count; i++ {
		src := topology.NodeID(s.Intn(n))
		out := net.Out(src)
		if len(out) == 0 {
			continue
		}
		net.Disconnect(src, out[s.Intn(len(out))])
		for attempts := 8; attempts > 0; attempts-- {
			dst := topology.NodeID(s.Intn(n))
			if dst != src && net.Connect(src, dst) {
				break
			}
		}
	}
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

// AssembleScale validates the results of ScaleCells into summaries, in
// sweep order.
func AssembleScale(rs []runner.Result) ([]*ScaleSummary, error) {
	out := make([]*ScaleSummary, len(rs))
	for i, r := range rs {
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: cell %s/%s failed: %s", r.Experiment, r.Cell, r.Err)
		}
		sum, ok := r.Value.(*ScaleSummary)
		if !ok {
			return nil, fmt.Errorf("experiments: cell %s/%s has value %T, want *ScaleSummary",
				r.Experiment, r.Cell, r.Value)
		}
		out[i] = sum
	}
	return out, nil
}

// Scale runs the sweep on the default pool and returns the summaries.
func ScaleSweep(scale Scale, seed uint64) []*ScaleSummary {
	cells, _ := ScaleCells("scale", scale, seed)
	return must(AssembleScale(runLocal(cells)))
}
