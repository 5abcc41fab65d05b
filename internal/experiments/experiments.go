// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4.3) plus the ablations listed in
// DESIGN.md.
//
// Every experiment family is one Registry entry: runner.Cells — one
// isolated simulation per cell, built by the family's *Cells
// constructor through cell — plus a renderer that checks the finished
// results with collect and shapes them into paper-style tables. The
// CLI (cmd/repro) merges the cells of many experiments into one pooled
// runner.Run so the whole evaluation shards across cores. See EXPERIMENTS.md for the experiment ↔
// paper-figure map and the artifact schema.
//
// Seeding: all cells of one experiment share the experiment seed, so
// static/dynamic comparisons are paired (identical workload streams) —
// the paper's methodology. Cells never draw seeds from shared state at
// run time, which is what keeps results independent of the worker
// count.
package experiments

import (
	"fmt"

	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/runner"
)

// Scale selects the experiment size.
type Scale uint8

const (
	// Full is the paper's scale: 2,000 users, 200,000 songs, 4 days.
	Full Scale = iota
	// CI is a 10x-reduced scale with the same shape: 200 users, 20,000
	// songs, 24 hours. Suitable for tests and benchmarks.
	CI
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Full:
		return "full"
	case CI:
		return "ci"
	default:
		return fmt.Sprintf("Scale(%d)", uint8(s))
	}
}

// ParseScale converts a CLI flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "full":
		return Full, nil
	case "ci":
		return CI, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want full or ci)", s)
	}
}

// config returns the mode/TTL configuration at the given scale.
func (s Scale) config(mode gnutella.Mode, ttl int, seed uint64) gnutella.Config {
	var c gnutella.Config
	if s == Full {
		c = gnutella.DefaultConfig(mode, ttl)
	} else {
		c = gnutella.CIConfig(mode, ttl)
	}
	c.Seed = seed
	return c
}

// reportHours returns the paper's sampling hours for the scale: from
// steady state to the end in five steps (full scale: 12, 27, 42, 57,
// 72, 87).
func (s Scale) reportHours() []int {
	if s == Full {
		return metrics.SampleHours(12, 15, 87)
	}
	return metrics.SampleHours(3, 4, 23)
}

// warmupHours returns the steady-state cutoff (results before it are
// discarded, "we present the results after the 12th hour").
func (s Scale) warmupHours() int {
	if s == Full {
		return 12
	}
	return 3
}

// GnutellaSummary is the JSON-stable output of one gnutella cell: the
// hourly series plus the scalar aggregates every figure and ablation
// is assembled from. This is the `value` schema of gnutella cells in
// runs/<name>/cells.json (see EXPERIMENTS.md).
type GnutellaSummary struct {
	// HitsHourly and QueryMsgsHourly are the per-simulated-hour series
	// behind Figures 1 and 2.
	HitsHourly      []float64 `json:"hits_hourly"`
	QueryMsgsHourly []uint64  `json:"query_msgs_hourly"`
	// HitsTotal and QueryMsgsTotal are whole-run totals.
	HitsTotal      float64 `json:"hits_total"`
	QueryMsgsTotal uint64  `json:"query_msgs_total"`
	// FirstResultMsMean is the mean first-result delay over satisfied
	// queries, in milliseconds (Figure 3(a)'s y-axis).
	FirstResultMsMean float64 `json:"first_result_ms_mean"`
	// TotalResults counts every obtained result (Figure 3(a)
	// annotations).
	TotalResults uint64 `json:"total_results"`
	// Reconfigurations counts neighborhood changes.
	Reconfigurations uint64 `json:"reconfigurations"`
}

// summarizeGnutella projects run metrics onto the JSON-stable form.
func summarizeGnutella(m *gnutella.Metrics) *GnutellaSummary {
	return &GnutellaSummary{
		HitsHourly:        m.Hits.Values(),
		QueryMsgsHourly:   m.Meter.Series(netsim.MsgQuery),
		HitsTotal:         m.Hits.Total(),
		QueryMsgsTotal:    m.Meter.Total(netsim.MsgQuery),
		FirstResultMsMean: m.FirstResultDelay.Mean() * 1000,
		TotalResults:      m.TotalResults,
		Reconfigurations:  m.Reconfigurations,
	}
}

// gnutellaCell wraps one gnutella configuration as a runner cell.
func gnutellaCell(experiment, name string, cfg gnutella.Config) runner.Cell {
	return cell(experiment, name, cfg, func(c *gnutella.Config) *uint64 { return &c.Seed },
		func(c gnutella.Config) (*GnutellaSummary, error) {
			return summarizeGnutella(gnutella.New(c).Run()), nil
		})
}

// gnutellaSummaries collects the n gnutella summaries a positional
// shaper indexes.
func gnutellaSummaries(rs []runner.Result, n int) ([]*GnutellaSummary, error) {
	gs, err := collect[*GnutellaSummary](rs)
	if err == nil && len(gs) != n {
		err = fmt.Errorf("experiments: %d gnutella cells, want %d", len(gs), n)
	}
	return gs, err
}

// bucketF and bucketU index an hourly series like metrics.Series
// (out-of-range buckets read as zero).
func bucketF(s []float64, b int) float64 {
	if b < 0 || b >= len(s) {
		return 0
	}
	return s[b]
}

func bucketU(s []uint64, b int) uint64 {
	if b < 0 || b >= len(s) {
		return 0
	}
	return s[b]
}

// windowF sums buckets [from, to).
func windowF(s []float64, from, to int) float64 {
	t := 0.0
	for b := from; b < to && b < len(s); b++ {
		if b >= 0 {
			t += s[b]
		}
	}
	return t
}

// HourlyRow is one sampled hour of a Figures 1/2 series.
type HourlyRow struct {
	Hour                    int
	StaticHits, DynamicHits float64
	StaticMsgs, DynamicMsgs float64
}

// FigSeries is the output of a Figure 1 or Figure 2 run.
type FigSeries struct {
	TTL  int
	Rows []HourlyRow
	// Totals over the post-warmup window.
	StaticHitsTotal, DynamicHitsTotal float64
	StaticMsgsTotal, DynamicMsgsTotal float64
}

// HitsTable renders the hits series (Figure 1(a) / 2(a)).
func (f *FigSeries) HitsTable(name string) *metrics.Table {
	t := metrics.NewTable(name, "hour", "Gnutella", "Dynamic_Gnutella")
	for _, r := range f.Rows {
		t.AddRow(r.Hour, r.StaticHits, r.DynamicHits)
	}
	return t
}

// MsgsTable renders the overhead series (Figure 1(b) / 2(b)).
func (f *FigSeries) MsgsTable(name string) *metrics.Table {
	t := metrics.NewTable(name, "hour", "Gnutella", "Dynamic_Gnutella")
	for _, r := range f.Rows {
		t.AddRow(r.Hour, r.StaticMsgs, r.DynamicMsgs)
	}
	return t
}

// FigHourlyCells returns the two paired cells (static, dynamic) of a
// Figure 1/2 experiment.
func FigHourlyCells(experiment string, scale Scale, ttl int, seed uint64) []runner.Cell {
	return []runner.Cell{
		gnutellaCell(experiment, "static", scale.config(gnutella.Static, ttl, seed)),
		gnutellaCell(experiment, "dynamic", scale.config(gnutella.Dynamic, ttl, seed)),
	}
}

// AssembleFigSeries builds the hourly series from the results of
// FigHourlyCells.
func AssembleFigSeries(scale Scale, ttl int, rs []runner.Result) (*FigSeries, error) {
	gs, err := gnutellaSummaries(rs, 2)
	if err != nil {
		return nil, err
	}
	sm, dm := gs[0], gs[1]
	out := &FigSeries{TTL: ttl}
	for _, h := range scale.reportHours() {
		out.Rows = append(out.Rows, HourlyRow{
			Hour:        h,
			StaticHits:  bucketF(sm.HitsHourly, h),
			DynamicHits: bucketF(dm.HitsHourly, h),
			StaticMsgs:  float64(bucketU(sm.QueryMsgsHourly, h)),
			DynamicMsgs: float64(bucketU(dm.QueryMsgsHourly, h)),
		})
	}
	from := scale.warmupHours()
	end := len(sm.HitsHourly)
	if l := len(dm.HitsHourly); l > end {
		end = l
	}
	out.StaticHitsTotal = windowF(sm.HitsHourly, from, end)
	out.DynamicHitsTotal = windowF(dm.HitsHourly, from, end)
	for b := from; b < end; b++ {
		out.StaticMsgsTotal += float64(bucketU(sm.QueryMsgsHourly, b))
		out.DynamicMsgsTotal += float64(bucketU(dm.QueryMsgsHourly, b))
	}
	return out, nil
}

// Fig3aRow is one TTL column of Figure 3(a).
type Fig3aRow struct {
	TTL int
	// Mean delay (milliseconds, as the paper's y-axis) from query issue
	// to first result, over satisfied queries.
	StaticDelayMs, DynamicDelayMs float64
	// Total results obtained over the whole run (the numbers printed
	// above the paper's columns).
	StaticResults, DynamicResults uint64
}

// fig3aTTLs is the x-axis of Figure 3(a).
var fig3aTTLs = []int{1, 2, 3, 4}

// Fig3aCells returns the eight cells of the response-time experiment:
// TTL ∈ {1, 2, 3, 4}, both variants, pairwise ordered (static, dynamic).
func Fig3aCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	var cells []runner.Cell
	for _, ttl := range fig3aTTLs {
		cells = append(cells,
			gnutellaCell(experiment, fmt.Sprintf("static-ttl%d", ttl), scale.config(gnutella.Static, ttl, seed)),
			gnutellaCell(experiment, fmt.Sprintf("dynamic-ttl%d", ttl), scale.config(gnutella.Dynamic, ttl, seed)),
		)
	}
	return cells
}

// AssembleFig3a builds the rows from the results of Fig3aCells.
func AssembleFig3a(rs []runner.Result) ([]Fig3aRow, error) {
	gs, err := gnutellaSummaries(rs, 2*len(fig3aTTLs))
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3aRow, len(fig3aTTLs))
	for i, ttl := range fig3aTTLs {
		sm, dm := gs[2*i], gs[2*i+1]
		rows[i] = Fig3aRow{
			TTL:            ttl,
			StaticDelayMs:  sm.FirstResultMsMean,
			DynamicDelayMs: dm.FirstResultMsMean,
			StaticResults:  sm.TotalResults,
			DynamicResults: dm.TotalResults,
		}
	}
	return rows, nil
}

// Fig3aTable renders Figure 3(a).
func Fig3aTable(rows []Fig3aRow) *metrics.Table {
	t := metrics.NewTable("Figure 3(a): average response time for first result",
		"hops", "Gnutella delay (ms)", "Dynamic delay (ms)", "Gnutella results", "Dynamic results")
	for _, r := range rows {
		t.AddRow(r.TTL, r.StaticDelayMs, r.DynamicDelayMs, r.StaticResults, r.DynamicResults)
	}
	return t
}

// Fig3bRow is one reconfiguration-threshold column of Figure 3(b).
type Fig3bRow struct {
	Threshold int
	// DynamicHits is the total hits over the full run at this θ.
	DynamicHits float64
	// StaticHits is the flat baseline the paper draws across the chart.
	StaticHits float64
}

// fig3bThresholds is the x-axis of Figure 3(b).
var fig3bThresholds = []int{1, 2, 4, 8, 16}

// Fig3bCells returns the six cells of the reconfiguration-threshold
// sweep: the static baseline followed by θ ∈ {1, 2, 4, 8, 16} at TTL 2.
func Fig3bCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	cells := []runner.Cell{
		gnutellaCell(experiment, "static", scale.config(gnutella.Static, 2, seed)),
	}
	for _, th := range fig3bThresholds {
		cfg := scale.config(gnutella.Dynamic, 2, seed)
		cfg.ReconfigThreshold = th
		cells = append(cells, gnutellaCell(experiment, fmt.Sprintf("dynamic-theta%d", th), cfg))
	}
	return cells
}

// AssembleFig3b builds the rows from the results of Fig3bCells.
func AssembleFig3b(rs []runner.Result) ([]Fig3bRow, error) {
	gs, err := gnutellaSummaries(rs, 1+len(fig3bThresholds))
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3bRow, len(fig3bThresholds))
	for i, th := range fig3bThresholds {
		rows[i] = Fig3bRow{Threshold: th, DynamicHits: gs[i+1].HitsTotal, StaticHits: gs[0].HitsTotal}
	}
	return rows, nil
}

// Fig3bTable renders Figure 3(b).
func Fig3bTable(rows []Fig3bRow) *metrics.Table {
	t := metrics.NewTable("Figure 3(b): effect of reconfiguration period (total hits)",
		"threshold", "Gnutella", "Dynamic_Gnutella")
	for _, r := range rows {
		t.AddRow(r.Threshold, r.StaticHits, r.DynamicHits)
	}
	return t
}
