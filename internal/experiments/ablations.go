package experiments

import (
	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/peerolap"
	"repro/internal/webcache"
	"repro/internal/workload"

	"repro/internal/runner"
)

// This file implements the ablation experiments of DESIGN.md: the
// orthogonal techniques of [10] composed with reconfiguration, the
// asymmetric-vs-symmetric update regimes, benefit-function sensitivity,
// and the two additional case studies (web caching, PeerOlap). Like the
// figures, each decomposes into runner cells plus an assemble step.

// VariantRow summarizes one gnutella variant run.
type VariantRow struct {
	Name     string
	Hits     float64
	Messages uint64
	// MeanFirstResultMs is the average first-result delay over
	// satisfied queries, in milliseconds.
	MeanFirstResultMs float64
}

// variantCells wraps a set of named gnutella configurations.
func variantCells(experiment string, names []string, cfgs []gnutella.Config) []runner.Cell {
	cells := make([]runner.Cell, len(cfgs))
	for i := range cfgs {
		cells[i] = gnutellaCell(experiment, names[i], cfgs[i])
	}
	return cells
}

// AssembleVariants tabulates variant cells in submission order.
func AssembleVariants(rs []runner.Result) ([]VariantRow, error) {
	gs, err := collect[*GnutellaSummary](rs)
	if err != nil {
		return nil, err
	}
	rows := make([]VariantRow, len(gs))
	for i, m := range gs {
		rows[i] = VariantRow{
			Name:              rs[i].Cell,
			Hits:              m.HitsTotal,
			Messages:          m.QueryMsgsTotal,
			MeanFirstResultMs: m.FirstResultMsMean,
		}
	}
	return rows, nil
}

// VariantTable renders variant rows.
func VariantTable(title string, rows []VariantRow) *metrics.Table {
	t := metrics.NewTable(title, "variant", "total hits", "query messages", "first result (ms)")
	for _, r := range rows {
		t.AddRow(r.Name, r.Hits, r.Messages, r.MeanFirstResultMs)
	}
	return t
}

// DirectedBFTCells builds the forward-policy comparison cells:
// flooding, Directed BFT (K=2) and random-2 forwarding on the dynamic
// system — technique (ii) of [10], which the paper says can be employed
// "to further reduce the query cost".
func DirectedBFTCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	base := scale.config(gnutella.Dynamic, 3, seed)
	directed := base
	directed.Variant.Forward = gnutella.ForwardDirected2
	random := base
	random.Variant.Forward = gnutella.ForwardRandom2
	return variantCells(experiment,
		[]string{"flood", "directed-bft-2", "random-2"},
		[]gnutella.Config{base, directed, random})
}

// IterDeepeningCells builds the deepening-schedule comparison cells:
// one full-depth flood against the iterative deepening schedule
// {1, TTL} — technique (i) of [10].
func IterDeepeningCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	base := scale.config(gnutella.Dynamic, 3, seed)
	deep := base
	deep.Variant.IterativeDeepening = []int{1, 3}
	deep.Variant.DeepeningTimeout = 2.0
	return variantCells(experiment,
		[]string{"flood-ttl3", "deepening-1-3"},
		[]gnutella.Config{base, deep})
}

// LocalIndicesCells builds the local-indices comparison cells: the
// plain dynamic flood against technique (iii) of [10], radius-1 local
// indices with the flood shortened by one hop. Same nominal coverage,
// one hop less propagation.
func LocalIndicesCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	base := scale.config(gnutella.Dynamic, 2, seed)
	indexed := base
	indexed.Variant.UseLocalIndices = true
	return variantCells(experiment,
		[]string{"flood-ttl2", "local-indices-r1"},
		[]gnutella.Config{base, indexed})
}

// AsymmetricUpdateCells builds the update-regime comparison cells: the
// paper's symmetric (Algo 4) update against the unilateral asymmetric
// (Algo 3) regime on the same workload.
func AsymmetricUpdateCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	static := scale.config(gnutella.Static, 2, seed)
	symmetric := scale.config(gnutella.Dynamic, 2, seed)
	asymmetric := symmetric
	asymmetric.Variant.Update = gnutella.AsymmetricUpdate
	return variantCells(experiment,
		[]string{"static", "dynamic-symmetric", "dynamic-asymmetric"},
		[]gnutella.Config{static, symmetric, asymmetric})
}

// BenefitFunctionsCells builds the benefit-sensitivity cells: the
// dynamic gain under each benefit definition (Section 3.4: "the benefit
// function should capture the general goals and characteristics of the
// system").
func BenefitFunctionsCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	br := scale.config(gnutella.Dynamic, 2, seed)
	hits := br
	hits.Variant.Benefit = gnutella.BenefitHitCount
	lat := br
	lat.Variant.Benefit = gnutella.BenefitHitsPerLatency
	return variantCells(experiment,
		[]string{"B/R (paper)", "hit-count", "hits-per-latency"},
		[]gnutella.Config{br, hits, lat})
}

// DriftRow is one sampled hour of the preference-drift experiment.
type DriftRow struct {
	Hour                    int
	StaticHits, DynamicHits float64
	DynamicDecayHits        float64
}

// DriftCells builds the three drift cells: static, dynamic, and
// dynamic with hourly ledger decay. The experiment evaluates the
// framework's central motivation — following "changes in access
// patterns": at mid-run every user's music preferences change; the
// static network cannot react, the dynamic one re-adapts, and hourly
// ledger decay (aging out stale statistics) accelerates the recovery.
func DriftCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	duration := scale.config(gnutella.Static, 2, seed).DurationHours
	at := duration / 2
	mk := func(mode gnutella.Mode, decay float64) gnutella.Config {
		c := scale.config(mode, 2, seed)
		c.DriftAtHour = at
		c.DriftFraction = 1.0
		c.LedgerDecayPerHour = decay
		return c
	}
	return variantCells(experiment,
		[]string{"static", "dynamic", "dynamic-decay"},
		[]gnutella.Config{mk(gnutella.Static, 0), mk(gnutella.Dynamic, 0), mk(gnutella.Dynamic, 0.7)})
}

// AssembleDrift builds the hourly drift rows from DriftCells results.
func AssembleDrift(scale Scale, seed uint64, rs []runner.Result) ([]DriftRow, error) {
	gs, err := gnutellaSummaries(rs, 3)
	if err != nil {
		return nil, err
	}
	sm, dm, dd := gs[0], gs[1], gs[2]
	duration := scale.config(gnutella.Static, 2, seed).DurationHours
	var rows []DriftRow
	for h := 0; h < duration; h++ {
		rows = append(rows, DriftRow{
			Hour:             h,
			StaticHits:       bucketF(sm.HitsHourly, h),
			DynamicHits:      bucketF(dm.HitsHourly, h),
			DynamicDecayHits: bucketF(dd.HitsHourly, h),
		})
	}
	return rows, nil
}

// DriftTable renders the drift series.
func DriftTable(rows []DriftRow) *metrics.Table {
	t := metrics.NewTable("Extension: preference drift at mid-run (hits per hour, hops=2)",
		"hour", "static", "dynamic", "dynamic+decay")
	for _, r := range rows {
		t.AddRow(r.Hour, r.StaticHits, r.DynamicHits, r.DynamicDecayHits)
	}
	return t
}

// WebCacheRow is one row of the web-caching experiment; it is also the
// JSON `value` schema of webcache cells in cells.json.
type WebCacheRow struct {
	Name             string  `json:"name"`
	NeighborHitRatio float64 `json:"neighbor_hit_ratio"`
	MeanLatencyMs    float64 `json:"mean_latency_ms"`
	OriginFetches    float64 `json:"origin_fetches"`
}

// webcacheConfig scales one web-caching configuration.
func webcacheConfig(scale Scale, mode webcache.Mode, digests bool, seed uint64) webcache.Config {
	c := webcache.DefaultConfig(mode)
	if scale == CI {
		c.Web = workload.WebConfig{
			Pages: 5000, Interests: 10, PopularityTheta: 0.9,
			Proxies: 30, LocalFraction: 0.7, RequestsPerHour: 600,
		}
		c.CacheCapacity = 100
		c.DurationHours = 12
	}
	c.UseDigests = digests
	c.Seed = seed
	return c
}

// WebCacheCells builds the three web-caching cells: static and dynamic
// Squid-like proxy cooperation, with and without digest guidance.
func WebCacheCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	variants := []struct {
		name    string
		mode    webcache.Mode
		digests bool
	}{
		{"static", webcache.Static, false},
		{"dynamic", webcache.Dynamic, false},
		{"dynamic+digests", webcache.Dynamic, true},
	}
	cells := make([]runner.Cell, len(variants))
	for i, v := range variants {
		cells[i] = cell(experiment, v.name, webcacheConfig(scale, v.mode, v.digests, seed),
			func(c *webcache.Config) *uint64 { return &c.Seed },
			func(c webcache.Config) (*WebCacheRow, error) {
				m := webcache.New(c).Run()
				half := c.DurationHours / 2
				return &WebCacheRow{
					Name:             v.name,
					NeighborHitRatio: m.NeighborHitRatio(half, c.DurationHours),
					MeanLatencyMs:    m.Latency.Mean() * 1000,
					OriginFetches:    m.OriginFetches.Total(),
				}, nil
			})
	}
	return cells
}

// WebCacheTable renders the web-caching rows.
func WebCacheTable(rows []*WebCacheRow) *metrics.Table {
	t := metrics.NewTable("Case study: distributed web caching (Squid-like, hops=1)",
		"variant", "neighbor-hit ratio", "mean latency (ms)", "origin fetches")
	for _, r := range rows {
		t.AddRow(r.Name, r.NeighborHitRatio, r.MeanLatencyMs, r.OriginFetches)
	}
	return t
}

// PeerOlapRow is one row of the PeerOlap experiment; it is also the
// JSON `value` schema of peerolap cells in cells.json.
type PeerOlapRow struct {
	Name            string  `json:"name"`
	MeanQueryCostS  float64 `json:"mean_query_cost_s"`
	PeerHitRatio    float64 `json:"peer_hit_ratio"`
	WarehouseChunks float64 `json:"warehouse_chunks"`
}

// peerolapConfig scales one PeerOlap configuration.
func peerolapConfig(scale Scale, mode peerolap.Mode, seed uint64) peerolap.Config {
	c := peerolap.DefaultConfig(mode)
	if scale == CI {
		c.Olap = workload.OlapConfig{
			Chunks: 4800, Regions: 12, PopularityTheta: 0.9,
			Peers: 60, LocalFraction: 0.8, ChunksPerQueryMean: 4,
			QueriesPerHour: 30,
		}
		c.CacheChunks = 150
		c.DurationHours = 16
	}
	c.Seed = seed
	return c
}

// PeerOlapCells builds the two PeerOlap cells: static and dynamic
// chunk-cache cooperation.
func PeerOlapCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	variants := []struct {
		name string
		mode peerolap.Mode
	}{{"static", peerolap.Static}, {"dynamic", peerolap.Dynamic}}
	cells := make([]runner.Cell, len(variants))
	for i, v := range variants {
		cells[i] = cell(experiment, v.name, peerolapConfig(scale, v.mode, seed),
			func(c *peerolap.Config) *uint64 { return &c.Seed },
			func(c peerolap.Config) (*PeerOlapRow, error) {
				m := peerolap.New(c).Run()
				half := c.DurationHours / 2
				return &PeerOlapRow{
					Name:            v.name,
					MeanQueryCostS:  m.QueryCost.Mean(),
					PeerHitRatio:    m.PeerHitRatio(half, c.DurationHours),
					WarehouseChunks: m.WarehouseChunks.Total(),
				}, nil
			})
	}
	return cells
}

// PeerOlapTable renders the PeerOlap rows.
func PeerOlapTable(rows []*PeerOlapRow) *metrics.Table {
	t := metrics.NewTable("Case study: PeerOlap chunk caching",
		"variant", "mean query cost (s)", "peer-hit ratio", "warehouse chunks")
	for _, r := range rows {
		t.AddRow(r.Name, r.MeanQueryCostS, r.PeerHitRatio, r.WarehouseChunks)
	}
	return t
}
