package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads every result file (written with -out) of untraced
// runs under dir and groups the end-to-end values by workload and metric.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace != 0 || r.Workload == "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced dbench results", dir)
	}
	return out, nil
}

// worsening returns by what share of a's median b's median is worse
// (negative when b is better).
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck compares two result sets of the same commit: for every
// workload and end-to-end metric it prints the two medians, by how much
// the second is worse than the first and the metric's bound, and it
// returns non-zero when any difference — in either direction — exceeds
// the bound. Two sets of one commit that disagree by more than the
// bound mean the benchmark cannot tell a regression of that size from
// noise.
func runSelfcheck(w io.Writer, dirA, dirB string) int {
	a, errA := loadResults(dirA)
	b, errB := loadResults(dirB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintf(w, "selfcheck: %v\n", err)
			return 2
		}
	}
	return compareSets(w, a, b)
}

func compareSets(w io.Writer, a, b map[string]map[string][]float64) int {
	workloads := make([]string, 0, len(a))
	for name := range a {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	status := 0
	fmt.Fprintf(w, "%-16s %-18s %5s %14s %14s %9s %7s\n", "workload", "metric", "runs", "median A", "median B", "worse by", "bound")
	for _, wl := range workloads {
		if b[wl] == nil {
			fmt.Fprintf(w, "%-16s missing from the second set\n", wl)
			status = 1
			continue
		}
		for _, def := range endToEnd {
			ma, mb := medianFloat(a[wl][def.Name]), medianFloat(b[wl][def.Name])
			diff := worsening(def, ma, mb)
			verdict := ""
			if diff > def.Bound || -diff > def.Bound {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %2d/%-2d %14.6g %14.6g %+8.2f%% %6.2f%%%s\n",
				wl, def.Name, len(a[wl][def.Name]), len(b[wl][def.Name]), ma, mb, diff*100, def.Bound*100, verdict)
		}
	}
	return status
}
