package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

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
// (TestChurnServeModesAgree locks this down). Queries/sec, downtime
// and publish cost are wall-clock side measurements: they ride in the
// value's WallSample and land in BENCH_churnserve.json, plus a
// cross-mode "saturate-under-churn" headline entry.

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
// churnserve cell, plus its wall-clock sample. Identical between the
// stopworld and epochswap cells of one size apart from Mode and Wall.
type ChurnServeSummary struct {
	Nodes          int    `json:"nodes"`
	Mode           string `json:"mode"` // "stopworld" or "epochswap"
	Epochs         int    `json:"epochs"`
	DeltasPerEpoch int    `json:"deltas_per_epoch"`
	// ChurnQueries is how many saturated queries drained during churn;
	// their outcomes are schedule-dependent and live in Wall only.
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

	Wall WallSample `json:"-"`
}

// churnServeMetrics is the BENCH_churnserve.json entry of one cell.
func churnServeMetrics(s *ChurnServeSummary) map[string]float64 {
	m := map[string]float64{
		"probe_hit_rate":   s.ProbeHitRate,
		"probe_msgs/query": s.ProbeMsgsPerQuery,
	}
	if w := s.Wall; w.WallSeconds > 0 {
		m["queries/sec"] = float64(w.Queries) / w.WallSeconds
		m["downtime_ms"] = w.DowntimeSeconds * 1000
		m["wall_seconds"] = w.WallSeconds
		m["workers"] = float64(w.Workers)
		if w.Publishes > 0 {
			m["publish_ms"] = w.PublishSeconds / float64(w.Publishes) * 1000
		}
	}
	return m
}

// churnServeSidecar is the family's sidecar: one entry per cell, plus
// the "saturate-under-churn" headline comparing epochswap against
// stopworld at the largest measured size.
func churnServeSidecar(rs []runner.Result) (*Report, error) {
	rep, err := sidecar("churnserve", churnServeMetrics)(rs)
	if err != nil {
		return nil, err
	}
	sums, _ := collect[*ChurnServeSummary](rs) // checked by sidecar
	largest := 0
	for _, s := range sums {
		if s.Wall.WallSeconds > 0 {
			largest = max(largest, s.Nodes)
		}
	}
	qps := map[string]float64{}
	down := map[string]float64{}
	for _, s := range sums {
		if s.Nodes == largest && s.Wall.WallSeconds > 0 {
			qps[s.Mode] = float64(s.Wall.Queries) / s.Wall.WallSeconds
			down[s.Mode] = s.Wall.DowntimeSeconds * 1000
		}
	}
	if qps["stopworld"] > 0 && qps["epochswap"] > 0 {
		rep.Entries = append(rep.Entries, Entry{Name: "saturate-under-churn", Metrics: map[string]float64{
			"nodes":                 float64(largest),
			"epochswap_qps":         qps["epochswap"],
			"stopworld_qps":         qps["stopworld"],
			"qps_ratio":             qps["epochswap"] / qps["stopworld"],
			"epochswap_downtime_ms": down["epochswap"],
			"stopworld_downtime_ms": down["stopworld"],
		}})
	}
	return rep, nil
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
					return RunChurnServe(c, churnServeEpochs, c.Nodes/churnServeDenom, c.Queries/4, 0, mode == "epochswap")
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
// across them (workers <= 0 means GOMAXPROCS), then probeQueries
// sequential post-quiesce queries for the deterministic summary.
// epochSwap selects the serving mode (see the package comment above).
func RunChurnServe(cfg ScaleConfig, epochs, deltasPerEpoch, probeQueries, workers int, epochSwap bool) (*ChurnServeSummary, error) {
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

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
		Wall:           WallSample{Queries: cfg.Queries, Workers: workers},
	}

	var eng *search.Engine
	if epochSwap {
		eng, err = serveEpochSwap(fx, churnStream, churnQs, epochs, deltasPerEpoch, workers, baseOpts, &sum.Wall)
	} else {
		eng, err = serveStopWorld(fx, churnStream, churnQs, epochs, deltasPerEpoch, workers, baseOpts, &sum.Wall)
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
	epochs, deltasPerEpoch, workers int, opts []search.Option, sample *WallSample) (*search.Engine, error) {
	csr := fx.net.Freeze()
	eng, err := search.New(search.Over(csr, fx.content()), opts...)
	if err != nil {
		return nil, err
	}
	sat, err := eng.Saturate(search.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer sat.Close()

	ctx := context.Background()
	chunks := epochChunks(qs, epochs)
	start := time.Now()
	for e := 0; e < epochs; e++ {
		ds := churnServeDeltas(fx.net, deltasPerEpoch, churn)
		fx.net.ApplyAll(ds)
		// The shard is idle here by construction — re-freezing in place
		// under live readers would tear their cascades. This wait is the
		// stop-the-world window the epochswap mode eliminates.
		t0 := time.Now()
		fx.net.FreezeInto(csr)
		sample.DowntimeSeconds += time.Since(t0).Seconds()
		if _, err := sat.Run(ctx, chunks[e]); err != nil {
			return nil, err
		}
	}
	sample.WallSeconds = time.Since(start).Seconds()
	return eng, nil
}

// serveEpochSwap is the zero-downtime mode: a writer goroutine applies
// each epoch's deltas through the snapshot store while the shard keeps
// draining the epoch's chunk on whatever epoch its queries pinned.
// The handoff channel is buffered to the epoch count, so the pipeline
// never waits on a publish — if the writer lags, queries simply keep
// serving an older epoch, which is the whole point of the store. The
// handoff cost is still measured into DowntimeSeconds rather than
// assumed away; it should read as zero.
//
// Determinism is unaffected by the buffering: the writer consumes
// handoffs serially in FIFO order, so delta batch k is always drawn
// against the adjacency left by batches 1..k-1 — the identical stream
// the stopworld mode applies.
func serveEpochSwap(fx *scaleFixture, churn *rng.Stream, qs []search.Query,
	epochs, deltasPerEpoch, workers int, opts []search.Option, sample *WallSample) (*search.Engine, error) {
	store := topology.NewSnapshotStore(fx.net)
	eng, err := search.New(search.OverContent(fx.content()),
		append(opts, search.WithSnapshotStore(store))...)
	if err != nil {
		return nil, err
	}
	sat, err := eng.Saturate(search.WithWorkers(workers))
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
			ds := churnServeDeltas(fx.net, deltasPerEpoch, churn)
			t0 := time.Now()
			store.Apply(ds)
			sample.PublishSeconds += time.Since(t0).Seconds()
			sample.Publishes++
		}
	}()

	ctx := context.Background()
	chunks := epochChunks(qs, epochs)
	start := time.Now()
	for e := 0; e < epochs; e++ {
		t0 := time.Now()
		epochCh <- struct{}{}
		sample.DowntimeSeconds += time.Since(t0).Seconds()
		if _, err := sat.Run(ctx, chunks[e]); err != nil {
			return nil, err
		}
	}
	// Wall covers serving the full query budget; the trailing publishes
	// below are quiescence for the probe, not serving time.
	sample.WallSeconds = time.Since(start).Seconds()
	close(epochCh)
	wg.Wait()
	return eng, nil
}
