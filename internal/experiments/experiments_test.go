package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/runner"
)

// These are the repository's integration tests: full (CI-scale)
// simulations of every figure, asserting the paper's qualitative
// claims. Absolute numbers differ from the paper (different scale and
// substrate); the shapes must not.

// run executes cells on the default pool and shapes the results,
// failing the test on any cell error.
func run[T any](t *testing.T, cells []runner.Cell, shape func([]runner.Result) (T, error)) T {
	t.Helper()
	rs, _ := runner.Run(context.Background(), cells, runner.Options{})
	v, err := shape(rs)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// figSeries runs Figure 1 (ttl 2) or Figure 2 (ttl 4).
func figSeries(t *testing.T, ttl int, seed uint64) *FigSeries {
	return run(t, FigHourlyCells("fig", CI, ttl, seed), func(rs []runner.Result) (*FigSeries, error) {
		return AssembleFigSeries(CI, ttl, rs)
	})
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Fatalf("ParseScale(full) = %v, %v", s, err)
	}
	if s, err := ParseScale("ci"); err != nil || s != CI {
		t.Fatalf("ParseScale(ci) = %v, %v", s, err)
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
	if Full.String() != "full" || CI.String() != "ci" {
		t.Fatal("scale names wrong")
	}
}

func TestReportHours(t *testing.T) {
	full := Full.reportHours()
	if len(full) != 6 || full[0] != 12 || full[5] != 87 {
		t.Fatalf("full report hours = %v", full)
	}
	ci := CI.reportHours()
	if len(ci) == 0 || ci[0] != CI.warmupHours() {
		t.Fatalf("ci report hours = %v", ci)
	}
}

func TestFig1Shape(t *testing.T) {
	f := figSeries(t, 2, 1)
	if len(f.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Claim 1: the dynamic approach satisfies more queries overall.
	if f.DynamicHitsTotal <= f.StaticHitsTotal {
		t.Fatalf("dynamic hits %v not above static %v", f.DynamicHitsTotal, f.StaticHitsTotal)
	}
	// Claim 2: the dynamic approach produces less query overhead.
	if f.DynamicMsgsTotal >= f.StaticMsgsTotal {
		t.Fatalf("dynamic messages %v not below static %v", f.DynamicMsgsTotal, f.StaticMsgsTotal)
	}
	// Claim 3: dynamic wins at (almost) every sampled hour after
	// steady state.
	wins := 0
	for _, r := range f.Rows {
		if r.DynamicHits > r.StaticHits {
			wins++
		}
	}
	if wins < len(f.Rows)-1 {
		t.Fatalf("dynamic won only %d/%d sampled hours", wins, len(f.Rows))
	}
}

func TestFig2Shape(t *testing.T) {
	f := figSeries(t, 4, 1)
	if f.DynamicHitsTotal <= f.StaticHitsTotal {
		t.Fatalf("dynamic hits %v not above static %v", f.DynamicHitsTotal, f.StaticHitsTotal)
	}
	if f.DynamicMsgsTotal >= f.StaticMsgsTotal {
		t.Fatalf("dynamic messages %v not below static %v", f.DynamicMsgsTotal, f.StaticMsgsTotal)
	}
	// Claim: the overhead gap is larger at hops=4 than at hops=2
	// ("the performance difference is significant if we allow the
	// queries to propagate for a larger number of hops").
	f1 := figSeries(t, 2, 1)
	gap2 := f1.StaticMsgsTotal / f1.DynamicMsgsTotal
	gap4 := f.StaticMsgsTotal / f.DynamicMsgsTotal
	if gap4 <= gap2 {
		t.Fatalf("hops=4 overhead ratio %v not above hops=2 ratio %v", gap4, gap2)
	}
}

func TestFig3aShape(t *testing.T) {
	rows := run(t, Fig3aCells("fig3a", CI, 1), AssembleFig3a)
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	// Claim 1: static delay grows with the terminating condition.
	for i := 1; i < 4; i++ {
		if rows[i].StaticDelayMs <= rows[i-1].StaticDelayMs {
			t.Fatalf("static delay not increasing at TTL %d: %+v", rows[i].TTL, rows)
		}
	}
	// Claim 2: the dynamic scheme answers faster at every depth >= 2
	// (at depth 1 both search only direct neighbors).
	for _, r := range rows[1:] {
		if r.DynamicDelayMs >= r.StaticDelayMs {
			t.Fatalf("dynamic delay %v not below static %v at TTL %d",
				r.DynamicDelayMs, r.StaticDelayMs, r.TTL)
		}
	}
	// Claim 3: result counts grow with depth for both variants.
	for i := 1; i < 4; i++ {
		if rows[i].StaticResults <= rows[i-1].StaticResults ||
			rows[i].DynamicResults <= rows[i-1].DynamicResults {
			t.Fatalf("results not increasing with TTL: %+v", rows)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	rows := run(t, Fig3bCells("fig3b", CI, 1), AssembleFig3b)
	if len(rows) != 5 {
		t.Fatalf("rows: %v", rows)
	}
	// Claim 1: every dynamic configuration beats static in total hits.
	for _, r := range rows {
		if r.DynamicHits <= r.StaticHits {
			t.Fatalf("θ=%d dynamic hits %v not above static %v",
				r.Threshold, r.DynamicHits, r.StaticHits)
		}
	}
	// Claim 2: the curve has an interior optimum (neither θ=1 nor θ=16
	// is the best configuration).
	best, bestHits := 0, rows[0].DynamicHits
	for i, r := range rows {
		if r.DynamicHits > bestHits {
			best, bestHits = i, r.DynamicHits
		}
	}
	if best == 0 || best == len(rows)-1 {
		t.Fatalf("optimum at boundary θ=%d: %+v", rows[best].Threshold, rows)
	}
}

func TestDirectedBFTAblation(t *testing.T) {
	rows := run(t, DirectedBFTCells("directed", CI, 1), AssembleVariants)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	flood, directed, random := rows[0], rows[1], rows[2]
	if directed.Messages >= flood.Messages {
		t.Fatalf("directed BFT messages %d not below flood %d", directed.Messages, flood.Messages)
	}
	// History-based selection must beat blind random selection at equal
	// fan-out.
	if directed.Hits <= random.Hits {
		t.Fatalf("directed hits %v not above random-2 hits %v", directed.Hits, random.Hits)
	}
}

func TestIterDeepeningAblation(t *testing.T) {
	rows := run(t, IterDeepeningCells("iterdeep", CI, 1), AssembleVariants)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[1].Hits == 0 {
		t.Fatal("deepening produced no hits")
	}
	// First results still arrive; the deepening delay penalty shows in
	// the first-result column (failed cycles wait CycleTimeout).
	if rows[1].MeanFirstResultMs <= 0 {
		t.Fatalf("deepening first-result delay missing: %+v", rows[1])
	}
}

func TestAsymmetricUpdateAblation(t *testing.T) {
	rows := run(t, AsymmetricUpdateCells("asym", CI, 1), AssembleVariants)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	static, symmetric := rows[0], rows[1]
	if symmetric.Hits <= static.Hits {
		t.Fatalf("symmetric dynamic hits %v not above static %v", symmetric.Hits, static.Hits)
	}
}

func TestBenefitFunctionsAblation(t *testing.T) {
	rows := run(t, BenefitFunctionsCells("benefit", CI, 1), AssembleVariants)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r.Hits == 0 {
			t.Fatalf("benefit variant %q produced no hits", r.Name)
		}
	}
}

func TestWebCacheExperiment(t *testing.T) {
	rows := run(t, WebCacheCells("webcache", CI, 1), collect[*WebCacheRow])
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	static, dynamic := rows[0], rows[1]
	if dynamic.NeighborHitRatio <= static.NeighborHitRatio {
		t.Fatalf("dynamic neighbor-hit ratio %v not above static %v",
			dynamic.NeighborHitRatio, static.NeighborHitRatio)
	}
	if dynamic.MeanLatencyMs >= static.MeanLatencyMs {
		t.Fatalf("dynamic latency %v not below static %v",
			dynamic.MeanLatencyMs, static.MeanLatencyMs)
	}
}

func TestPeerOlapExperiment(t *testing.T) {
	rows := run(t, PeerOlapCells("peerolap", CI, 1), collect[*PeerOlapRow])
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	static, dynamic := rows[0], rows[1]
	if dynamic.MeanQueryCostS >= static.MeanQueryCostS {
		t.Fatalf("dynamic query cost %v not below static %v",
			dynamic.MeanQueryCostS, static.MeanQueryCostS)
	}
}

func TestTablesRender(t *testing.T) {
	f := figSeries(t, 2, 2)
	for _, tbl := range []interface{ String() string }{
		f.HitsTable("t1"),
		f.MsgsTable("t2"),
		Fig3aTable(run(t, Fig3aCells("fig3a", CI, 2), AssembleFig3a)),
		Fig3bTable(run(t, Fig3bCells("fig3b", CI, 2), AssembleFig3b)),
	} {
		out := tbl.String()
		if !strings.Contains(out, "Gnutella") {
			t.Fatalf("table missing series label:\n%s", out)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := figSeries(t, 2, 7)
	b := figSeries(t, 2, 7)
	if a.DynamicHitsTotal != b.DynamicHitsTotal || a.StaticMsgsTotal != b.StaticMsgsTotal {
		t.Fatal("same seed produced different experiment results")
	}
}

func TestLocalIndicesAblation(t *testing.T) {
	rows := run(t, LocalIndicesCells("localindex", CI, 1), AssembleVariants)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	flood, indexed := rows[0], rows[1]
	// Technique (iii) of [10]: one hop less flooding with the radius-1
	// index answering for the frontier — large message savings at
	// essentially unchanged coverage.
	if indexed.Messages >= flood.Messages/2 {
		t.Fatalf("local indices saved too little: %d vs %d messages",
			indexed.Messages, flood.Messages)
	}
	if indexed.Hits < 0.8*flood.Hits {
		t.Fatalf("local indices lost coverage: %v vs %v hits", indexed.Hits, flood.Hits)
	}
}

func TestDriftExperiment(t *testing.T) {
	rows := run(t, DriftCells("drift", CI, 1), func(rs []runner.Result) ([]DriftRow, error) {
		return AssembleDrift(CI, 1, rs)
	})
	if len(rows) != 24 {
		t.Fatalf("expected 24 hourly rows, got %d", len(rows))
	}
	at := len(rows) / 2
	window := func(f func(DriftRow) float64, from, to int) float64 {
		sum := 0.0
		for _, r := range rows[from:to] {
			sum += f(r)
		}
		return sum
	}
	dyn := func(r DriftRow) float64 { return r.DynamicHits }
	sta := func(r DriftRow) float64 { return r.StaticHits }
	// Before the drift, the adapted dynamic network clearly beats
	// static.
	if window(dyn, at-4, at) <= window(sta, at-4, at) {
		t.Fatalf("pre-drift dynamic %v not above static %v",
			window(dyn, at-4, at), window(sta, at-4, at))
	}
	// The drift hurts: the dynamic advantage right after the change is
	// smaller than right before it (neighborhoods optimized for stale
	// preferences).
	gainBefore := window(dyn, at-3, at) - window(sta, at-3, at)
	gainAfter := window(dyn, at, at+3) - window(sta, at, at+3)
	if gainAfter >= gainBefore {
		t.Fatalf("drift did not dent the dynamic advantage: before %v, after %v",
			gainBefore, gainAfter)
	}
	// And the system recovers: by the final quarter the dynamic
	// advantage is positive again.
	tail := len(rows) - len(rows)/4
	if window(dyn, tail, len(rows)) <= window(sta, tail, len(rows)) {
		t.Fatalf("no recovery: tail dynamic %v vs static %v",
			window(dyn, tail, len(rows)), window(sta, tail, len(rows)))
	}
}
