package search_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/pkg/search"
)

// TestEngineConcurrentByteIdentical hammers one shared Engine from 32
// goroutines and asserts every outcome is byte-identical to a
// sequential run of the same queries — the facade-level extension of
// the core's Scratch-reuse byte-identity property. Run under -race
// this also proves the pooled hot path is data-race free, including
// the per-query instantiation of the stochastic random-2 policy.
func TestEngineConcurrentByteIdentical(t *testing.T) {
	const (
		goroutines = 32
		queries    = 512
	)
	net := newTestNet(256, 4)
	mk := func() *search.Engine {
		eng, err := search.New(net,
			search.WithPolicy("random-2"),
			search.WithSeed(42),
			search.WithTTL(9),
			search.WithDelay(stepDelay),
			search.WithForwardWhenHit(true))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	qs := make([]search.Query, queries)
	for i := range qs {
		qs[i] = search.Query{
			ID:     uint64(i),
			Key:    search.Key(i * 5),
			Origin: search.NodeID((i * 13) % 256),
		}
	}

	// Sequential reference on a dedicated engine.
	want := make([][]byte, queries)
	ref := mk()
	for i, q := range qs {
		r, err := ref.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
	}

	// 32 goroutines share ONE engine, each over a strided disjoint slice
	// of the query list.
	shared := mk()
	got := make([][]byte, queries)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < queries; i += goroutines {
				r, err := shared.Do(context.Background(), qs[i])
				if err != nil {
					errs <- err
					return
				}
				got[i], err = json.Marshal(r)
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := range qs {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("query %d diverged under concurrency:\n  concurrent: %s\n  sequential: %s",
				i, got[i], want[i])
		}
	}
}

// TestEngineConcurrentBatch drives Batch from multiple goroutines at
// once (each batch its own one-call Saturator) and checks agreement
// with the reference.
func TestEngineConcurrentBatch(t *testing.T) {
	net := newTestNet(128, 4)
	eng, err := search.New(net,
		search.WithPolicy("random-3"),
		search.WithSeed(9),
		search.WithTTL(7))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]search.Query, 64)
	for i := range qs {
		qs[i] = search.Query{ID: uint64(i), Key: search.Key(i * 11), Origin: search.NodeID(i % 128)}
	}
	want, err := eng.Batch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := eng.Batch(context.Background(), qs)
			if err != nil {
				t.Error(err)
				return
			}
			gotJSON, _ := json.Marshal(got)
			if string(gotJSON) != string(wantJSON) {
				t.Error("concurrent Batch diverged from reference")
			}
		}()
	}
	wg.Wait()
}
