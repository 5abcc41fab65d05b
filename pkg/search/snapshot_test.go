package search_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/pkg/search"
)

// frozen freezes net's adjacency into a CSR and pairs it with net's
// content through Over: the Network that reaches the cascade core's
// devirtualized CSR fast path.
func frozen(t testing.TB, net *testNet) search.Network {
	t.Helper()
	csr, err := topology.FreezeView(net.n, net.Out)
	if err != nil {
		t.Fatal(err)
	}
	return search.Over(csr, core.ContentFunc(net.HasContent))
}

// TestOverCSRByteIdentical: passing a frozen *topology.CSR through Over
// (the zero-copy route the scale experiments take) matches the plain
// interface network too.
func TestOverCSRByteIdentical(t *testing.T) {
	net := newTestNet(60, 4)
	plain, err := search.New(net, search.WithTTL(5), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := search.New(frozen(t, net), search.WithTTL(5), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for key := 0; key < 40; key++ {
		q := search.Query{ID: uint64(key), Key: search.Key(key), Origin: search.NodeID(key % 7)}
		a, err := plain.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("key %d: CSR-over %+v != plain %+v", key, b, a)
		}
	}
}

// TestOriginBoundsError: on a size-aware graph, an out-of-range origin
// is a validation error that leaves the Engine reusable — never an
// index panic inside the CSR fast path.
func TestOriginBoundsError(t *testing.T) {
	eng, err := search.New(frozen(t, newTestNet(20, 2)), search.WithTTL(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, origin := range []search.NodeID{-1, 20, 1000} {
		if _, err := eng.Do(ctx, search.Query{ID: 1, Key: 3, Origin: origin}); err == nil {
			t.Errorf("Do with origin %d: no error", origin)
		}
		if _, err := eng.Explore(ctx, search.Exploration{Keys: []search.Key{3}, Origin: origin}); err == nil {
			t.Errorf("Explore with origin %d: no error", origin)
		}
	}
	// Still reusable after the rejections.
	if res, err := eng.Do(ctx, search.Query{ID: 2, Key: 3, Origin: 0}); err != nil || !res.Found() {
		t.Fatalf("engine unusable after validation errors: %+v, %v", res, err)
	}
}

// TestEngineSteadyStateAllocs pins the pooled hot path at the PR 3
// baseline: a steady-state Do through the facade costs at most 4 heap
// allocations — snapshot or not — so the CSR/bucket work cannot have
// added hidden per-query allocation.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, snapshot := range []bool{false, true} {
		var net search.Network = newTestNet(60, 4)
		name := "plain"
		if snapshot {
			net = frozen(t, newTestNet(60, 4))
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			eng, err := search.New(net, search.WithTTL(4), search.WithDelay(stepDelay))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			// Warm the pool to its high-water marks.
			for i := 0; i < 50; i++ {
				if _, err := eng.Do(ctx, search.Query{ID: uint64(i), Key: search.Key(i), Origin: 0}); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := eng.Do(ctx, search.Query{ID: 3, Key: 3, Origin: 0}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 4 {
				t.Fatalf("steady-state Do allocates %.1f times, want <= 4 (PR 3 baseline)", allocs)
			}
		})
	}
}
