package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/topology"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{170_000, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %d, want 5", got)
	}
	if got := percentile(sorted, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %d, want 9", got)
	}
}

func TestSegmentStats(t *testing.T) {
	// 1000 calls of 1 ms at one per millisecond, except that the fourth
	// tenth of the run stalls: one call takes a second. The mean rate
	// halves; the midmeans over the ten segments do not move.
	var calls []call
	at := int64(0)
	for i := 0; i < 1000; i++ {
		lat := int64(1e6)
		if i == 350 {
			lat = 1e9
		}
		at += lat
		calls = append(calls, call{lat: lat, end: at})
	}
	rates, p50s, tails := segmentStats(calls, equalParts(len(calls), segments), 99)
	if len(rates) != segments || len(p50s) != segments || len(tails) != segments {
		t.Fatalf("%d/%d/%d segment values, want %d each", len(rates), len(p50s), len(tails), segments)
	}
	if got := midmean(rates); got < 999 || got > 1001 {
		t.Errorf("midmean segment rate %g calls/s, want 1000", got)
	}
	if got := midmean(tails); got != 1 {
		t.Errorf("midmean segment p99 %g ms, want 1", got)
	}
	if got := midmean([]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 100}); got != 5.5 {
		t.Errorf("midmean drops two of ten at each end: got %g, want 5.5", got)
	}
	if got := midmean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("midmean of three is their mean: got %g", got)
	}
	if got := tails[3]; got != 1 {
		t.Errorf("the stalled segment's p99 is %g ms: one slow call in a hundred is beyond p99", got)
	}
	if got := equalParts(3, segments); len(got) != 3 || got[2] != [2]int{2, 3} {
		t.Errorf("equalParts(3, 10) = %v", got)
	}
	if rates, _, _ := segmentStats(nil, equalParts(0, segments), 99); len(rates) != 0 {
		t.Errorf("rates of nothing: %v", rates)
	}
}

func smokeConfig(t *testing.T, workload string, seed uint64) runConfig {
	t.Helper()
	plan := loadPlan()
	spec, ok := plan.workload(workload)
	if !ok {
		t.Fatalf("no workload %q in the plan", workload)
	}
	return runConfig{spec: spec, plan: plan, seed: seed, seconds: 0.1, scale: 0.01, out: io.Discard}
}

func TestPlansAndWorldsAreDeterministic(t *testing.T) {
	plan := loadPlan()
	flat := plan.Worlds["flat100k"]
	a, b := buildFlatWorld(flat, 2000), buildFlatWorld(flat, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds of the flat world differ")
	}
	for i, nbs := range a.adj {
		for _, nb := range nbs {
			if !a.connected(int(nb), i) {
				t.Fatalf("edge %d-%d is not symmetric", i, nb)
			}
		}
	}
	if qa, qb := a.uniformQueries(newRand(5, 4), 100), b.uniformQueries(newRand(5, 4), 100); !reflect.DeepEqual(qa, qb) {
		t.Fatal("the same seed drew two different plans")
	}
	if qa, qb := a.uniformQueries(newRand(5, 4), 100), a.uniformQueries(newRand(6, 4), 100); reflect.DeepEqual(qa, qb) {
		t.Fatal("two seeds drew the same plan")
	}

	rw := newRestWorld(plan.Worlds["parity50"])
	p1 := rw.spreadMisses(rw.w.allPairs(newRand(5, 3)))
	p2 := rw.spreadMisses(rw.w.allPairs(newRand(5, 3)))
	p3 := rw.spreadMisses(rw.w.allPairs(newRand(6, 3)))
	if !reflect.DeepEqual(p1, p2) || reflect.DeepEqual(p1, p3) {
		t.Fatal("the REST plan must depend on the seed and on nothing else")
	}
	// Misses are spread evenly: every window of a twentieth of the plan
	// holds its share of them, to within one.
	misses, total := 0, 0
	for _, q := range p1 {
		if !rw.answer(q).found() {
			total++
		}
	}
	win := len(p1) / 20
	for i, q := range p1 {
		if !rw.answer(q).found() {
			misses++
		}
		if (i+1)%win == 0 {
			want := float64(total) * float64(i+1) / float64(len(p1))
			if d := float64(misses) - want; d > 1 || d < -1 {
				t.Fatalf("after %d queries %d misses, want %.1f", i+1, misses, want)
			}
		}
	}
	e1 := newEnginePlan(smokeConfig(t, "engine-churn", 9))
	e2 := newEnginePlan(smokeConfig(t, "engine-churn", 9))
	if !reflect.DeepEqual(e1.rewireEpochs(newRand(9, 5), 20, 3), e2.rewireEpochs(newRand(9, 5), 20, 3)) {
		t.Fatal("the same seed generated two different churn schedules")
	}
}

// holderDist is the reference the daemon's own equivalence harness uses
// (internal/daemon/batch_test.go): BFS distance from origin to the
// nearest other holder, maxd+1 when none lies within maxd hops.
func holderDist(w *daemon.World, origin topology.NodeID, key core.Key, maxd int) int {
	dist := map[topology.NodeID]int{origin: 0}
	queue := []topology.NodeID{origin}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		if d >= maxd {
			continue
		}
		for _, nb := range w.Net.Out(cur) {
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = d + 1
			if w.HasContent(nb, key) {
				return d + 1
			}
			queue = append(queue, nb)
		}
	}
	return maxd + 1
}

func TestOracleMatchesHolderDist(t *testing.T) {
	spec := worldSpec{Seed: 11, Nodes: 12, Degree: 2, TTL: 3, Keys: 30, Replicas: 2}
	dw := daemon.BuildWorld(spec.Seed, spec.Nodes, spec.Degree, spec.Keys, spec.Replicas)
	rw := newRestWorld(spec)
	hits, misses := 0, 0
	for o := 0; o < spec.Nodes; o++ {
		for k := 0; k < spec.Keys; k++ {
			want := holderDist(dw, topology.NodeID(o), core.Key(k), spec.TTL)
			a := rw.answer(query{origin: int32(o), key: uint32(k)})
			got := int(a.nearest())
			if !a.found() {
				got = spec.TTL + 1
				misses++
			} else {
				hits++
			}
			if got != want {
				t.Fatalf("origin %d key %d: oracle distance %d, holderDist %d", o, k, got, want)
			}
			for _, h := range a.hits {
				if int(h.holder) == o {
					t.Fatalf("origin %d key %d: the origin answered its own query", o, k)
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("the 12-node world has %d hits and %d misses; the test needs both", hits, misses)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestNamesAndBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q is outside the allowed alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	plan := loadPlan()
	for _, w := range plan.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(plan.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the plan %d", len(bj.Workloads), len(plan.Workloads))
	}
	for i, w := range plan.Workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the plan %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ndbench         %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ndbench         %+v", bj.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmarks"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range loadPlan().Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, w.Name, 3))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

func TestSmokeLadder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	res, err := runLadder(smokeConfig(t, "rest-hit", 3), path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("the ladder saw wrong answers: %v", res.Notes)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok && d.Name != "host.ref_kernel_ms" {
			t.Errorf("per-layer metric %s is missing", d.Name)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	byID := map[int32]span{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || s.Start < p.Start) {
			t.Fatalf("span %d (%s) has no parent or starts before it", s.ID, s.Name)
		}
	}
	if len(tr.Spans) < 100 {
		t.Fatalf("only %d spans in the trace", len(tr.Spans))
	}
}

func TestSelfcheck(t *testing.T) {
	set := func(throughput float64) map[string]map[string][]float64 {
		m := map[string][]float64{}
		for _, d := range endToEnd {
			m[d.Name] = []float64{1, 1, 1}
		}
		m["throughput_per_s"] = []float64{throughput * 0.99, throughput, throughput * 1.01}
		return map[string]map[string][]float64{"rest-hit": m}
	}
	var out bytes.Buffer
	if got := compareSets(&out, set(1000), set(1020)); got != 0 {
		t.Errorf("two sets 2%% apart: status %d\n%s", got, out.String())
	}
	bound := endToEnd[1].Bound
	if endToEnd[1].Name != "throughput_per_s" {
		t.Fatal("endToEnd[1] is not throughput_per_s")
	}
	if got := compareSets(&out, set(1000), set(1000*(1-bound-0.01))); got != 1 {
		t.Errorf("the second set is slower than the bound allows: status %d", got)
	}
	if got := compareSets(&out, set(1000), set(1000*(1+bound+0.02))); got != 1 {
		t.Errorf("the second set is faster than the bound allows, so the sets disagree: status %d", got)
	}
}
