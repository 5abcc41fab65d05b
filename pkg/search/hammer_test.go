package search_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/pkg/search"
)

// TestSaturationHammerByteIdentical is the concurrency battery for the
// shared-snapshot serving path: 32 goroutines drive mixed traffic — Do,
// Batch and Saturator.Run — against ONE engine over ONE frozen CSR
// snapshot, and every per-query outcome must be byte-identical to a
// sequential replay of the same queries with the same runner.DeriveSeed
// streams. Under -race (the CI race job runs this package) it also
// proves the whole serving surface — pool scratches, pinned worker
// scratches, the admission queue and the per-query stochastic policy
// instantiation — is data-race free.
func TestSaturationHammerByteIdentical(t *testing.T) {
	const (
		goroutines = 32
		queries    = 1024
		nodes      = 512
	)
	net := newTestNet(nodes, 4)
	mk := func() *search.Engine {
		eng, err := search.New(frozen(t, net),
			search.WithPolicy("random-2"),
			search.WithSeed(7),
			search.WithTTL(8),
			search.WithDelay(stepDelay),
			search.WithForwardWhenHit(true))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	qs := satQueries(queries, nodes)

	// Sequential replay on a dedicated engine: the ground truth.
	ref := mk()
	want := make([]string, queries)
	for i, q := range qs {
		r, err := ref.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}

	// One shared engine + one shared saturator take all the traffic.
	shared := mk()
	sat, err := shared.Saturate(search.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sat.Close()

	got := make([]string, queries)
	record := func(i int, r search.Result) error {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		got[i] = string(b)
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns the strided slice i ≡ g (mod 32) and
			// pushes it through one of the three call shapes.
			var mine []int
			for i := g; i < queries; i += goroutines {
				mine = append(mine, i)
			}
			switch g % 3 {
			case 0: // one-shot
				for _, i := range mine {
					r, err := shared.Do(context.Background(), qs[i])
					if err != nil {
						errs <- err
						return
					}
					if err := record(i, r); err != nil {
						errs <- err
						return
					}
				}
			case 1: // a one-call Saturator over the whole stride at once
				sub := make([]search.Query, len(mine))
				for k, i := range mine {
					sub[k] = qs[i]
				}
				rs, err := shared.Batch(context.Background(), sub)
				if err != nil {
					errs <- err
					return
				}
				for k, i := range mine {
					if err := record(i, rs[k]); err != nil {
						errs <- err
						return
					}
				}
			case 2: // saturation traffic through the shared worker shard
				sub := make([]search.Query, len(mine))
				for k, i := range mine {
					sub[k] = qs[i]
				}
				rs, err := sat.Run(context.Background(), sub)
				if err != nil {
					errs <- err
					return
				}
				for k, i := range mine {
					if err := record(i, rs[k]); err != nil {
						errs <- err
						return
					}
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
		if got[i] != want[i] {
			t.Fatalf("query %d diverged under mixed concurrent traffic:\n  concurrent: %s\n  sequential: %s",
				i, got[i], want[i])
		}
	}
}
