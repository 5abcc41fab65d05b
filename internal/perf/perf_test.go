package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rep := NewReport("scale-experiment")
	rep.Add("B", map[string]float64{"allocs/query": 10})
	rep.Add("A", map[string]float64{"allocs/query": 5, "events/sec": 1.5})
	path := filepath.Join(t.TempDir(), "sub", "BENCH_test.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Source != "scale-experiment" || len(got.Entries) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Entries[0].Name != "A" || got.Entries[1].Name != "B" {
		t.Errorf("entries not sorted by name: %+v", got.Entries)
	}
	if v := got.Entries[0].Metrics["events/sec"]; v != 1.5 {
		t.Errorf("events/sec = %v, want 1.5", v)
	}
}

func TestAddMerges(t *testing.T) {
	rep := NewReport("x")
	rep.Add("A", map[string]float64{"allocs/query": 5})
	rep.Add("A", map[string]float64{"msgs/query": 7})
	if len(rep.Entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(rep.Entries))
	}
	if m := rep.Entries[0].Metrics; m["allocs/query"] != 5 || m["msgs/query"] != 7 {
		t.Errorf("merge lost a metric: %+v", m)
	}
}
