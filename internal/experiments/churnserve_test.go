package experiments

import (
	"reflect"
	"testing"
)

// TestChurnServeModesAgree is the differential check backing the
// churnserve family's determinism contract: the stopworld baseline and
// the epochswap store path consume the identical delta stream, end on
// the identical adjacency, and produce byte-identical deterministic
// summaries — only the Mode tag differs. The during-churn throughput
// numbers are wall-clock side measurements (the Wall sample) and are
// not compared.
func TestChurnServeModesAgree(t *testing.T) {
	cfg := DefaultScaleConfig(3000, 300, 7)
	const (
		epochs = 4
		deltas = 30
		probes = 200
	)
	stop, err := RunChurnServe(cfg, epochs, deltas, probes, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := RunChurnServe(cfg, epochs, deltas, probes, 2, true)
	if err != nil {
		t.Fatal(err)
	}

	if stop.Mode != "stopworld" || swap.Mode != "epochswap" {
		t.Fatalf("mode tags: %q / %q", stop.Mode, swap.Mode)
	}
	a, b := *stop, *swap
	a.Mode, b.Mode = "", ""
	a.Wall, b.Wall = WallSample{}, WallSample{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("deterministic summaries diverged:\nstopworld: %+v\nepochswap: %+v", a, b)
	}
	if stop.FinalEdges == 0 {
		t.Fatal("final adjacency empty")
	}
	if stop.ProbeQueries != probes || stop.ProbeMessages == 0 {
		t.Fatalf("probe batch did not run: %+v", stop)
	}

	// The store path publishes exactly one epoch per delta batch; the
	// baseline never publishes (its freezes are all downtime).
	if swap.Wall.Publishes != epochs {
		t.Fatalf("epochswap published %d epochs, want %d", swap.Wall.Publishes, epochs)
	}
	if stop.Wall.Publishes != 0 {
		t.Fatalf("stopworld published %d epochs, want 0", stop.Wall.Publishes)
	}
	if stop.Wall.Queries != cfg.Queries || swap.Wall.Queries != cfg.Queries {
		t.Fatalf("samples drained %d/%d queries, want %d",
			stop.Wall.Queries, swap.Wall.Queries, cfg.Queries)
	}
}

func TestChurnServeValidates(t *testing.T) {
	cfg := DefaultScaleConfig(3000, 300, 7)
	if _, err := RunChurnServe(cfg, 0, 30, 200, 2, false); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := RunChurnServe(cfg, 4, 0, 200, 2, false); err == nil {
		t.Fatal("zero deltas accepted")
	}
	if _, err := RunChurnServe(cfg, 4, 30, 0, 2, false); err == nil {
		t.Fatal("zero probes accepted")
	}
	small := cfg
	small.Queries = 2
	if _, err := RunChurnServe(small, 4, 30, 200, 2, false); err == nil {
		t.Fatal("fewer queries than epochs accepted")
	}
}
