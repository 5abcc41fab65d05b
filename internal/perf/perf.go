// Package perf defines the wall-clock sidecar an experiment family
// writes next to its deterministic artifacts: `repro -exp
// scale|skew|faults|churnserve -json` leaves runs/<name>/BENCH_<exp>.json
// beside cells.json. Unlike cells.json these files are NOT
// byte-deterministic — they carry throughput, downtime and allocation
// measurements of one machine at one moment — so they are never checked
// in and never diffed. The repository's benchmark is benchmarks/dbench;
// the sidecars cover what it does not run (1M-node cells, stop-the-world
// vs epoch-swap downtime).
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Entry is one measured unit: one cell of an experiment family.
type Entry struct {
	// Name identifies the unit ("scale/n100000", ...).
	Name string `json:"name"`
	// Metrics maps metric name to value. Conventional keys:
	// "events/sec", "allocs/query", "msgs/query", "wall_seconds",
	// "delay_p50_ms", "delay_p95_ms", "delay_p99_ms".
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the toplevel BENCH_*.json document.
type Report struct {
	// Schema versions the document layout.
	Schema string `json:"schema"`
	// Source says which producer wrote the file ("scale-experiment").
	Source string `json:"source"`
	// Entries is sorted by Name for stable diffs.
	Entries []Entry `json:"entries"`
}

// SchemaVersion is the current value of Report.Schema.
const SchemaVersion = "repro-bench/v1"

// NewReport returns an empty report from the given source.
func NewReport(source string) *Report {
	return &Report{Schema: SchemaVersion, Source: source}
}

// Add appends or merges an entry: metrics of an existing name are
// overwritten key-wise, so producers can accumulate incrementally.
func (r *Report) Add(name string, metrics map[string]float64) {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			for k, v := range metrics {
				r.Entries[i].Metrics[k] = v
			}
			return
		}
	}
	m := make(map[string]float64, len(metrics))
	for k, v := range metrics {
		m[k] = v
	}
	r.Entries = append(r.Entries, Entry{Name: name, Metrics: m})
}

// sorted returns the entries ordered by name (writing normalizes order
// so reports diff cleanly regardless of production order).
func (r *Report) sorted() {
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
}

// Write marshals the report (entries sorted by name) to path, creating
// parent directories as needed.
func (r *Report) Write(path string) error {
	r.sorted()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal %s: %w", filepath.Base(path), err)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
