package repro

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsQuoteOnlyWhatExists is the prose-side twin of dbench's
// TestNamesAndBenchmarkJSON: a performance number in README.md,
// DESIGN.md or EXPERIMENTS.md is quoted by the name BENCHMARK.json gives
// it — `<workload>/<metric>` end to end, `<layer>.<metric>` per layer —
// so every back-ticked token of either shape must be a name the
// benchmark really prints, and none of the three files may send a reader
// to a file, command or hook that is no longer in the tree.
func TestDocsQuoteOnlyWhatExists(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	workloads, endToEnd := map[string]bool{}, map[string]bool{}
	perLayer, families := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bench.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range bench.PerLayer {
		perLayer[m.Name] = true
		family, _, _ := strings.Cut(m.Name, ".")
		families[family] = true
	}
	if len(workloads) == 0 || len(endToEnd) == 0 || len(perLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads or metrics: the guard would pass vacuously")
	}

	// Retired by the one-instrument change: the go-bench pipeline, the
	// specialisations nothing reached, and the second way to boot a node.
	// (Some names are spelled in two halves so that a grep of the tree
	// for them comes back empty, this file included.)
	gone := []string{
		"bench_test.go", "perf" + "check", "BENCH_" + "baseline", "BENCH_" + "history",
		"BENCH_daemon", "BENCH_ci", "BENCH_saturation", "perf/parse.go",
		"trajectory.go", "core/visited.go", "localindex.go",
		"Force" + "Visited", "ForceHeapQueue", "metrics.Histogram",
		"dsearch -id", "dsearch -policy",
		// Folded into internal/experiments, its only caller.
		"internal/" + "perf",
		// Public surface nothing ran: the streaming call and its core
		// hook, the reply-hop observers, options only tests set, and the
		// example programs CI compiled but never ran.
		"eng." + "Stream", "On" + "Result", "On" + "ReplyHop", "QueryBatch" + "Pipelined",
		"WithBatch" + "Workers", "WithAdmit" + "Batch", "WithSnap" + "shot(", "With" + "Benefit",
		"Without" + "Breaker", "examples" + "/",
		// The driver's second graph path (snapshot serving lost to the
		// live view by measurement) and the internal/ names no non-test
		// code reached.
		"Snapshot" + "Serve", "Topology" + "Changed", "publishIf" + "Dirty", "publish" + "Locked",
		"Publish" + "()", "Session." + "Searcher", "Session." + "Store",
		"Online" + "Filter", "Online" + "Count", "Total" + "Songs", "Total" + "All",
		"MeanOneWay" + "Delay", "Mean" + "Micros", "First" + "Delay", "On" + "Evict",
		"Update" + "Self", "Marshal" + "Canonical", "Fill" + "Ratio", "Re" + "schedule",
		"SongsPer" + "Category", "Library" + "Size", "ChunksPer" + "Region", "PagesPer" + "Interest",
	}
	goBench := regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	ticked := regexp.MustCompile("`([^`\n]+)`")
	// A metric is lower-case snake, possibly dotted (cell_ms.fig1); a Go
	// identifier after the same prefix (search.New) or a file name
	// (daemon.json) is not one.
	metricShaped := regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)
	fileLike := regexp.MustCompile(`\.(go|json|md|sh|txt|yml)$`)

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, name := range gone {
			if strings.Contains(text, name) {
				t.Errorf("%s names %q, which is no longer in the tree", doc, name)
			}
		}
		if m := goBench.FindString(text); m != "" {
			t.Errorf("%s cites the go benchmark %s: quote a dbench metric instead", doc, m)
		}
		for _, match := range ticked.FindAllStringSubmatch(text, -1) {
			tok := match[1]
			if w, metric, ok := strings.Cut(tok, "/"); ok && workloads[w] && !endToEnd[metric] {
				t.Errorf("%s quotes `%s`: %q is not an end-to-end metric in BENCHMARK.json", doc, tok, metric)
			}
			family, rest, ok := strings.Cut(tok, ".")
			if ok && families[family] && metricShaped.MatchString(rest) &&
				!fileLike.MatchString(tok) && !perLayer[tok] {
				t.Errorf("%s quotes `%s`: not a per-layer metric in BENCHMARK.json", doc, tok)
			}
		}
	}
}
