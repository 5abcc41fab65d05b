package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/pkg/search"
)

// The churnserve experiment family measures what serving queries
// *during* churn costs — the top open item after PR 4's refreeze cell
// showed a stop-the-world pause per reconfiguration epoch. Each cell
// drives the same saturated query load over the same 30-minute churn
// epochs (rewire deltas at n/100 edges per epoch) in one of two modes:
//
//   - stopworld: the PR-4 baseline. One CSR re-frozen in place between
//     epochs; the saturation shard must fully drain before each
//     re-freeze, so every epoch contributes a stop-the-world window in
//     which zero queries run.
//   - epochswap: the SnapshotStore path. A writer goroutine applies the
//     identical delta batches via store.Apply — freeze into the
//     off-duty buffer, atomic pointer swap — while the saturation
//     shard keeps draining on the previous epoch. Queries never wait
//     for a freeze; the only reader-visible cost is the swap.
//
// Determinism: concurrent serving makes which-epoch-served-which-query
// schedule-dependent, so the during-churn outcomes stay out of
// cells.json. The cell's deterministic value is the config echo, the
// final adjacency size (the delta stream is a pure function of the
// seed), and a sequential post-quiesce probe batch — byte-identical
// between the two modes because both end on the same adjacency
// (TestChurnServeModesAgree locks this down). The family reports no
// wall-clock numbers: serving under churn is timed by benchmarks/dbench
// (the engine-churn workload's throughput_per_s, with
// topology.publish_ms_p50 for the writer's freeze-and-swap cost).

// Churnserve cell shape: epochs of n/100 rewires each, a probe batch
// one quarter of the query budget, at the two sizes where the refreeze
// pause is visible.
const (
	churnServeEpochs = 8
	churnServeDenom  = 100 // deltas per epoch = nodes / churnServeDenom
)

var churnServeSizes = []int{100_000, 1_000_000}

// churnServeQueries is the per-cell query budget. It is deliberately
// larger than scaleQueries: the regime under study is long-lived
// serving punctuated by reconfigurations (30-minute churn epochs
// against millisecond freezes), so each epoch's serving window must
// dominate the publish cost or the comparison degenerates into
// back-to-back freezes that neither deployment mode would ever see.
func churnServeQueries(s Scale) int {
	if s == Full {
		return 40_000
	}
	return 8_000
}

// ChurnServeSummary is the deterministic cells.json value of one
// churnserve cell. Identical between the stopworld and epochswap cells
// of one size apart from Mode.
type ChurnServeSummary struct {
	Nodes          int    `json:"nodes"`
	Mode           string `json:"mode"` // "stopworld" or "epochswap"
	Epochs         int    `json:"epochs"`
	DeltasPerEpoch int    `json:"deltas_per_epoch"`
	// ChurnQueries is how many saturated queries drained during churn;
	// their outcomes are schedule-dependent and are not reported.
	ChurnQueries int `json:"churn_queries"`
	// FinalEdges is the adjacency size after the last epoch — a pure
	// function of the seed, and the first cross-mode identity check.
	FinalEdges int `json:"final_edges"`
	// Probe* summarize the sequential post-quiesce batch on the final
	// epoch: deterministic, byte-identical across modes.
	ProbeQueries      int     `json:"probe_queries"`
	ProbeHits         int     `json:"probe_hits"`
	ProbeHitRate      float64 `json:"probe_hit_rate"`
	ProbeMessages     uint64  `json:"probe_messages"`
	ProbeMsgsPerQuery float64 `json:"probe_msgs_per_query"`
}

// ChurnServeCells returns the stopworld/epochswap pair per size.
func ChurnServeCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	var cells []runner.Cell
	for _, n := range churnServeSizes {
		for _, mode := range []string{"stopworld", "epochswap"} {
			// Both modes of one size share a seed, so their worlds and
			// delta streams — and therefore their summaries — agree.
			cfg := DefaultScaleConfig(n, churnServeQueries(scale),
				runner.DeriveSeed(seed, experiment, fmt.Sprintf("n%d", n)))
			cells = append(cells, cell(experiment, fmt.Sprintf("%s-n%d", mode, n), cfg, scaleSeed,
				func(c ScaleConfig) (*ChurnServeSummary, error) {
					return RunChurnServe(c, churnServeEpochs, c.Nodes/churnServeDenom, c.Queries/4, mode == "epochswap")
				}))
		}
	}
	return cells
}

// ChurnServeTable renders the churnserve sweep. The stopworld and
// epochswap rows of one size must agree on everything but the mode —
// the table doubles as a visual identity check.
func ChurnServeTable(sums []*ChurnServeSummary) *metrics.Table {
	t := metrics.NewTable("Churnserve: saturated queries across churn epochs (post-quiesce probe)",
		"nodes", "mode", "epochs", "deltas/epoch", "final_edges", "probe_hit_rate", "probe_msgs/query")
	for _, s := range sums {
		t.AddRow(s.Nodes, s.Mode, s.Epochs, s.DeltasPerEpoch, s.FinalEdges,
			s.ProbeHitRate, s.ProbeMsgsPerQuery)
	}
	return t
}

// churnServeDeltas draws one epoch's delta batch against the current
// adjacency: count rewires, each disconnecting one existing edge of a
// random source and reconnecting it to a random peer. Failed connects
// (self, duplicate, capacity) are no-ops under delta semantics, so the
// batch sequence — and the final adjacency — is a pure function of the
// stream no matter which mode applies it.
func churnServeDeltas(net *topology.Network, count int, s *rng.Stream) []topology.Delta {
	n := net.Len()
	ds := make([]topology.Delta, 0, 2*count)
	for i := 0; i < count; i++ {
		src := topology.NodeID(s.Intn(n))
		out := net.Out(src)
		if len(out) == 0 {
			continue
		}
		rw := topology.Rewire(src, out[s.Intn(len(out))], topology.NodeID(s.Intn(n)))
		ds = append(ds, rw[:]...)
	}
	return ds
}

// drawChurnQueries pre-draws a query batch from the fixture's query
// stream (origins uniform over clients, keys Zipf), so saturated
// serving consumes no randomness concurrently.
func drawChurnQueries(fx *scaleFixture, firstID uint64, count int) []search.Query {
	qs := make([]search.Query, count)
	for i := range qs {
		qs[i] = search.Query{
			ID:     firstID + uint64(i),
			Key:    keyOf(fx, fx.query),
			Origin: fx.clientIDs[fx.query.Intn(len(fx.clientIDs))],
		}
	}
	return qs
}

func keyOf(fx *scaleFixture, s *rng.Stream) search.Key {
	return search.Key(fx.zipf.Index(s))
}

// RunChurnServe executes one churnserve cell: epochs delta batches of
// deltasPerEpoch rewires each, cfg.Queries saturated queries drained
// across them by a GOMAXPROCS-wide Saturator, then probeQueries
// sequential post-quiesce queries for the deterministic summary.
// epochSwap selects the serving mode (see the package comment above).
func RunChurnServe(cfg ScaleConfig, epochs, deltasPerEpoch, probeQueries int, epochSwap bool) (*ChurnServeSummary, error) {
	if epochs < 1 || deltasPerEpoch < 1 || probeQueries < 1 {
		return nil, fmt.Errorf("experiments: churnserve with %d epochs, %d deltas, %d probes",
			epochs, deltasPerEpoch, probeQueries)
	}
	if cfg.Queries < epochs {
		return nil, fmt.Errorf("experiments: churnserve with %d queries over %d epochs", cfg.Queries, epochs)
	}
	fx, err := buildScaleFixture(cfg)
	if err != nil {
		return nil, err
	}
	churnStream := fx.root.Split()
	churnQs := drawChurnQueries(fx, 1, cfg.Queries)
	probeQs := drawChurnQueries(fx, uint64(cfg.Queries)+1, probeQueries)

	policy := cfg.Policy
	if policy == "" {
		policy = "flood"
	}
	baseOpts := []search.Option{
		search.WithPolicy(policy),
		search.WithSeed(cfg.Seed),
		search.WithTTL(cfg.TTL),
		search.WithScratchHint(cfg.Nodes),
	}

	mode := "stopworld"
	if epochSwap {
		mode = "epochswap"
	}
	sum := &ChurnServeSummary{
		Nodes:          cfg.Nodes,
		Mode:           mode,
		Epochs:         epochs,
		DeltasPerEpoch: deltasPerEpoch,
		ChurnQueries:   cfg.Queries,
		ProbeQueries:   probeQueries,
	}

	var eng *search.Engine
	if epochSwap {
		eng, err = serveEpochSwap(fx, churnStream, churnQs, epochs, deltasPerEpoch, baseOpts)
	} else {
		eng, err = serveStopWorld(fx, churnStream, churnQs, epochs, deltasPerEpoch, baseOpts)
	}
	if err != nil {
		return nil, err
	}

	// Post-quiesce probe: sequential, on the final adjacency — the
	// deterministic, mode-independent half of the cell.
	sum.FinalEdges = fx.net.EdgeCount()
	ctx := context.Background()
	for i := range probeQs {
		out, err := eng.Do(ctx, probeQs[i])
		if err != nil {
			return nil, err
		}
		sum.ProbeMessages += out.Messages
		if out.Found() {
			sum.ProbeHits++
		}
	}
	sum.ProbeHitRate = float64(sum.ProbeHits) / float64(probeQueries)
	sum.ProbeMsgsPerQuery = float64(sum.ProbeMessages) / float64(probeQueries)
	return sum, nil
}

// epochChunks splits qs into epochs contiguous chunks (remainder on the
// last), one serving chunk per churn epoch.
func epochChunks(qs []search.Query, epochs int) [][]search.Query {
	per := len(qs) / epochs
	chunks := make([][]search.Query, epochs)
	for e := 0; e < epochs; e++ {
		lo := e * per
		hi := lo + per
		if e == epochs-1 {
			hi = len(qs)
		}
		chunks[e] = qs[lo:hi]
	}
	return chunks
}

// serveStopWorld is the baseline: apply each epoch's deltas, re-freeze
// the single CSR in place with the shard fully drained (the whole
// freeze is downtime), then drain that epoch's chunk.
func serveStopWorld(fx *scaleFixture, churn *rng.Stream, qs []search.Query,
	epochs, deltasPerEpoch int, opts []search.Option) (*search.Engine, error) {
	csr := fx.net.Freeze()
	eng, err := search.New(search.Over(csr, fx.content()), opts...)
	if err != nil {
		return nil, err
	}
	sat, err := eng.Saturate()
	if err != nil {
		return nil, err
	}
	defer sat.Close()

	ctx := context.Background()
	chunks := epochChunks(qs, epochs)
	for e := 0; e < epochs; e++ {
		ds := churnServeDeltas(fx.net, deltasPerEpoch, churn)
		fx.net.ApplyAll(ds)
		// The shard is idle here by construction — re-freezing in place
		// under live readers would tear their cascades. This wait is the
		// stop-the-world window the epochswap mode eliminates.
		fx.net.FreezeInto(csr)
		if _, err := sat.Run(ctx, chunks[e]); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// serveEpochSwap is the zero-downtime mode: a writer goroutine applies
// each epoch's deltas through the snapshot store while the shard keeps
// draining the epoch's chunk on whatever epoch its queries pinned.
// The handoff channel is buffered to the epoch count, so the pipeline
// never waits on a publish — if the writer lags, queries simply keep
// serving an older epoch, which is the whole point of the store.
//
// Determinism is unaffected by the buffering: the writer consumes
// handoffs serially in FIFO order, so delta batch k is always drawn
// against the adjacency left by batches 1..k-1 — the identical stream
// the stopworld mode applies.
func serveEpochSwap(fx *scaleFixture, churn *rng.Stream, qs []search.Query,
	epochs, deltasPerEpoch int, opts []search.Option) (*search.Engine, error) {
	store := topology.NewSnapshotStore(fx.net)
	eng, err := search.New(search.OverContent(fx.content()),
		append(opts, search.WithSnapshotStore(store))...)
	if err != nil {
		return nil, err
	}
	sat, err := eng.Saturate()
	if err != nil {
		return nil, err
	}
	defer sat.Close()

	epochCh := make(chan struct{}, epochs)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range epochCh {
			store.Apply(churnServeDeltas(fx.net, deltasPerEpoch, churn))
		}
	}()

	ctx := context.Background()
	chunks := epochChunks(qs, epochs)
	for e := 0; e < epochs; e++ {
		epochCh <- struct{}{}
		if _, err := sat.Run(ctx, chunks[e]); err != nil {
			return nil, err
		}
	}
	// The trailing publishes are quiescence for the probe.
	close(epochCh)
	wg.Wait()
	return eng, nil
}
