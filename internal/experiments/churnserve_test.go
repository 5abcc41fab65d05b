package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/pkg/search"
)

// TestChurnServeModesAgree is the differential check backing the
// churnserve family's determinism contract: the stopworld baseline and
// the epochswap store path consume the identical delta stream, end on
// the identical adjacency, and produce byte-identical deterministic
// summaries — only the Mode tag differs.
func TestChurnServeModesAgree(t *testing.T) {
	cfg := DefaultScaleConfig(3000, 300, 7)
	const (
		epochs = 4
		deltas = 30
		probes = 200
	)
	stop, err := RunChurnServe(cfg, epochs, deltas, probes, false)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := RunChurnServe(cfg, epochs, deltas, probes, true)
	if err != nil {
		t.Fatal(err)
	}

	if stop.Mode != "stopworld" || swap.Mode != "epochswap" {
		t.Fatalf("mode tags: %q / %q", stop.Mode, swap.Mode)
	}
	a, b := *stop, *swap
	a.Mode, b.Mode = "", ""
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("deterministic summaries diverged:\nstopworld: %+v\nepochswap: %+v", a, b)
	}
	if stop.FinalEdges == 0 {
		t.Fatal("final adjacency empty")
	}
	if stop.ProbeQueries != probes || stop.ProbeMessages == 0 {
		t.Fatalf("probe batch did not run: %+v", stop)
	}

	// The store path publishes exactly one epoch per delta batch on top
	// of the store's initial epoch 1; the baseline has no store, so its
	// queries carry epoch 0 (its freezes are all downtime).
	for _, tc := range []struct {
		mode  string
		serve func(*scaleFixture, *rng.Stream, []search.Query, int, int, []search.Option) (*search.Engine, error)
		want  uint64
	}{
		{"stopworld", serveStopWorld, 0},
		{"epochswap", serveEpochSwap, epochs + 1},
	} {
		fx, err := buildScaleFixture(cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs := drawChurnQueries(fx, 1, cfg.Queries)
		eng, err := tc.serve(fx, fx.root.Split(), qs, epochs, deltas, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := eng.Do(context.Background(), qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if out.Epoch != tc.want {
			t.Fatalf("%s: probe served by epoch %d, want %d", tc.mode, out.Epoch, tc.want)
		}
	}
}

func TestChurnServeValidates(t *testing.T) {
	cfg := DefaultScaleConfig(3000, 300, 7)
	if _, err := RunChurnServe(cfg, 0, 30, 200, false); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := RunChurnServe(cfg, 4, 0, 200, false); err == nil {
		t.Fatal("zero deltas accepted")
	}
	if _, err := RunChurnServe(cfg, 4, 30, 0, false); err == nil {
		t.Fatal("zero probes accepted")
	}
	small := cfg
	small.Queries = 2
	if _, err := RunChurnServe(small, 4, 30, 200, false); err == nil {
		t.Fatal("fewer queries than epochs accepted")
	}
}
