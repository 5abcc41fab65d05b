package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// Definition is one named experiment, materialized for a scale and
// seed: the runner cells to execute plus the renderer that turns the
// finished results into paper-shaped tables. The CLI concatenates the
// cells of every selected definition into a single runner.Run, so the
// whole evaluation shares one worker pool.
type Definition struct {
	// Name is the CLI name ("fig1", "directed", ...).
	Name string
	// About is the one-line description `repro -list` prints.
	About string
	// Cells are the independent simulations, in a fixed order the
	// Tables renderer relies on.
	Cells []runner.Cell
	// Tables renders this definition's slice of the results (same
	// order and length as Cells).
	Tables func(rs []runner.Result) ([]*metrics.Table, error)
}

// Registry returns every canonical experiment in presentation order —
// the set run by `repro -exp all`. Aliases that re-render a subset of
// another experiment's tables (fig1a, fig2b, ...) are resolved by Find
// but excluded here so their cells never run twice.
func Registry(scale Scale, seed uint64) []Definition {
	figTables := func(ttl int, hits, msgs string) func(rs []runner.Result) ([]*metrics.Table, error) {
		return func(rs []runner.Result) ([]*metrics.Table, error) {
			f, err := AssembleFigSeries(scale, ttl, rs)
			if err != nil {
				return nil, err
			}
			return []*metrics.Table{f.HitsTable(hits), f.MsgsTable(msgs)}, nil
		}
	}
	variantTables := func(title string) func(rs []runner.Result) ([]*metrics.Table, error) {
		return table(AssembleVariants, func(rows []VariantRow) *metrics.Table { return VariantTable(title, rows) })
	}
	return []Definition{
		{
			Name:  "fig1",
			About: "Figure 1: hits and query overhead per hour at hops=2, static vs dynamic",
			Cells: FigHourlyCells("fig1", scale, 2, seed),
			Tables: figTables(2,
				"Figure 1(a): queries satisfied per hour (hops=2)",
				"Figure 1(b): query overhead per hour (hops=2)"),
		},
		{
			Name:  "fig2",
			About: "Figure 2: hits and query overhead per hour at hops=4, static vs dynamic",
			Cells: FigHourlyCells("fig2", scale, 4, seed),
			Tables: figTables(4,
				"Figure 2(a): queries satisfied per hour (hops=4)",
				"Figure 2(b): query overhead per hour (hops=4)"),
		},
		{
			Name:   "fig3a",
			About:  "Figure 3(a): first-result response time and result counts over TTL 1-4",
			Cells:  Fig3aCells("fig3a", scale, seed),
			Tables: table(AssembleFig3a, Fig3aTable),
		},
		{
			Name:   "fig3b",
			About:  "Figure 3(b): total hits over the reconfiguration threshold sweep",
			Cells:  Fig3bCells("fig3b", scale, seed),
			Tables: table(AssembleFig3b, Fig3bTable),
		},
		{
			Name:   "directed",
			About:  "Ablation: Directed BFT vs flooding vs random-2 forwarding",
			Cells:  DirectedBFTCells("directed", scale, seed),
			Tables: variantTables("Ablation: Directed BFT vs flooding (dynamic, hops=3)"),
		},
		{
			Name:   "iterdeep",
			About:  "Ablation: iterative deepening {1,3} vs one full-depth flood",
			Cells:  IterDeepeningCells("iterdeep", scale, seed),
			Tables: variantTables("Ablation: iterative deepening (dynamic, max depth 3)"),
		},
		{
			Name:   "localindex",
			About:  "Ablation: radius-1 local indices with the flood shortened one hop",
			Cells:  LocalIndicesCells("localindex", scale, seed),
			Tables: variantTables("Ablation: local indices r=1 (technique iii of [10], hops=2)"),
		},
		{
			Name:   "asym",
			About:  "Ablation: symmetric (Algo 4) vs asymmetric (Algo 3) neighbor updates",
			Cells:  AsymmetricUpdateCells("asym", scale, seed),
			Tables: variantTables("Ablation: symmetric (Algo 4) vs asymmetric (Algo 3) updates (hops=2)"),
		},
		{
			Name:   "benefit",
			About:  "Ablation: benefit-function sensitivity of the dynamic gain",
			Cells:  BenefitFunctionsCells("benefit", scale, seed),
			Tables: variantTables("Ablation: benefit-function sensitivity (dynamic, hops=2)"),
		},
		{
			Name:  "drift",
			About: "Extension: mid-run preference drift and recovery, with ledger decay",
			Cells: DriftCells("drift", scale, seed),
			Tables: table(func(rs []runner.Result) ([]DriftRow, error) {
				return AssembleDrift(scale, seed, rs)
			}, DriftTable),
		},
		{
			Name:   "webcache",
			About:  "Case study: Squid-like cooperating proxies (one-hop, origin fallback)",
			Cells:  WebCacheCells("webcache", scale, seed),
			Tables: table(collect[*WebCacheRow], WebCacheTable),
		},
		{
			Name:   "peerolap",
			About:  "Case study: PeerOlap chunk caching against a data warehouse",
			Cells:  PeerOlapCells("peerolap", scale, seed),
			Tables: table(collect[*PeerOlapRow], PeerOlapTable),
		},
		{
			Name:   "scale",
			About:  "Engine stress: 1k-1M-node cascade sweeps",
			Cells:  ScaleCells("scale", scale, seed),
			Tables: table(collect[*ScaleSummary], ScaleTable),
		},
		{
			Name:   "policies",
			About:  "Forward policies swept over one shared network",
			Cells:  PolicyCells("policies", scale, seed),
			Tables: table(collect[*PolicySummary], PolicyTable),
		},
		{
			Name:  "skew",
			About: "Session driver grid: Zipf skew × churn × policy, plus a flash crowd",
			Cells: SkewCells("skew", scale, seed),
			Tables: func(rs []runner.Result) ([]*metrics.Table, error) {
				sums, err := collect[*SkewSummary](rs)
				if err != nil {
					return nil, err
				}
				return []*metrics.Table{SkewTable(rs, sums)}, nil
			},
		},
		{
			Name:   "faults",
			About:  "Robustness: hit-rate retention under drop-rate x crash-rate x policy",
			Cells:  FaultsCells("faults", scale, seed),
			Tables: table(collect[*FaultsSummary], FaultsTable),
		},
	}
}

// cell is the one way a family turns a config into a runner cell: the
// config is fixed at construction, and every run works on a copy whose
// seed field (seed points into it) holds the seed the runner passes.
func cell[C, V any](experiment, name string, cfg C, seed func(*C) *uint64, run func(C) (V, error)) runner.Cell {
	return runner.Cell{
		Experiment: experiment,
		Name:       name,
		Seed:       *seed(&cfg),
		Run: func(_ context.Context, s uint64) (any, error) {
			c := cfg
			*seed(&c) = s
			return run(c)
		},
	}
}

// collect is the one check every renderer applies to a
// family's results: there are some, every cell succeeded, and every
// value is a T. It returns the values in cell order.
func collect[T any](rs []runner.Result) ([]T, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("experiments: no results")
	}
	out := make([]T, len(rs))
	for i, r := range rs {
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: cell %s/%s failed: %s", r.Experiment, r.Cell, r.Err)
		}
		v, ok := r.Value.(T)
		if !ok {
			return nil, fmt.Errorf("experiments: cell %s/%s has value %T, want %T",
				r.Experiment, r.Cell, r.Value, *new(T))
		}
		out[i] = v
	}
	return out, nil
}

// table adapts a shaper and the renderer of its output into a
// Definition.Tables of one table.
func table[T any](shape func([]runner.Result) (T, error), render func(T) *metrics.Table) func([]runner.Result) ([]*metrics.Table, error) {
	return func(rs []runner.Result) ([]*metrics.Table, error) {
		v, err := shape(rs)
		if err != nil {
			return nil, err
		}
		return []*metrics.Table{render(v)}, nil
	}
}

// aliases maps single-table shortcuts to (canonical experiment, which
// table to keep): fig1a is the hits half of fig1, fig1b the overhead
// half, and so on.
var aliases = map[string]struct {
	canonical string
	table     int
}{
	"fig1a": {"fig1", 0},
	"fig1b": {"fig1", 1},
	"fig2a": {"fig2", 0},
	"fig2b": {"fig2", 1},
}

// Names returns the canonical experiment names in presentation order.
func Names() []string {
	defs := Registry(CI, 1)
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// Find resolves an experiment name (canonical or alias) to a
// definition at the given scale and seed.
func Find(name string, scale Scale, seed uint64) (Definition, error) {
	target, tableIdx := name, -1
	if a, ok := aliases[name]; ok {
		target, tableIdx = a.canonical, a.table
	}
	for _, d := range Registry(scale, seed) {
		if d.Name != target {
			continue
		}
		if tableIdx < 0 {
			return d, nil
		}
		inner := d.Tables
		idx := tableIdx
		d.Name = name
		d.Tables = func(rs []runner.Result) ([]*metrics.Table, error) {
			tables, err := inner(rs)
			if err != nil {
				return nil, err
			}
			if idx >= len(tables) {
				return nil, fmt.Errorf("experiments: alias %q wants table %d of %d", name, idx, len(tables))
			}
			return tables[idx : idx+1], nil
		}
		return d, nil
	}
	return Definition{}, fmt.Errorf("experiments: unknown experiment %q (want one of %s, or %s)",
		name, strings.Join(Names(), " "), "fig1a fig1b fig2a fig2b")
}
