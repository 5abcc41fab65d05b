package search_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/pkg/search"
)

// satQueries builds n distinct queries over an m-node net.
func satQueries(n, m int) []search.Query {
	qs := make([]search.Query, n)
	for i := range qs {
		qs[i] = search.Query{
			ID:     uint64(i),
			Key:    search.Key(i * 5),
			Origin: search.NodeID((i * 13) % m),
		}
	}
	return qs
}

func marshalResults(t *testing.T, rs []search.Result) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i := range rs {
		b, err := json.Marshal(rs[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestSaturatorWorkerInvariance is the serving-layer determinism
// contract: Run's results over a shared CSR snapshot are byte-identical
// to a sequential Do replay with the same runner.DeriveSeed streams, at
// every worker count. CI runs this explicitly as the saturation
// worker-invariance check.
func TestSaturatorWorkerInvariance(t *testing.T) {
	const n = 256
	net := newTestNet(n, 4)
	mk := func() *search.Engine {
		eng, err := search.New(frozen(t, net),
			search.WithPolicy("random-2"),
			search.WithSeed(42),
			search.WithTTL(8),
			search.WithDelay(stepDelay))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	qs := satQueries(300, n)

	ref := mk()
	want := make([]string, len(qs))
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

	for _, workers := range []int{1, 2, 8} {
		sat, err := mk().Saturate(search.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sat.Run(context.Background(), qs)
		sat.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := marshalResults(t, rs)
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("workers=%d query %d diverged:\n  saturated:  %s\n  sequential: %s",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestSaturatorConcurrentRuns issues Run from many goroutines against
// one Saturator; every call must independently match the reference.
func TestSaturatorConcurrentRuns(t *testing.T) {
	const n = 128
	eng, err := search.New(frozen(t, newTestNet(n, 4)), search.WithTTL(6))
	if err != nil {
		t.Fatal(err)
	}
	qs := satQueries(100, n)
	want, err := eng.Batch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := marshalResults(t, want)

	sat, err := eng.Saturate(search.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sat.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := sat.Run(context.Background(), qs)
			if err != nil {
				t.Error(err)
				return
			}
			got := marshalResults(t, rs)
			for i := range got {
				if got[i] != wantJSON[i] {
					t.Errorf("concurrent Run query %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSaturatorLifecycle covers the close and error paths: Run after
// Close fails with ErrSaturatorClosed, Close is idempotent, a bad query
// aborts the call with a positioned error, and a canceled context
// surfaces.
func TestSaturatorLifecycle(t *testing.T) {
	eng, err := search.New(frozen(t, newTestNet(64, 4)), search.WithTTL(4))
	if err != nil {
		t.Fatal(err)
	}

	sat, err := eng.Saturate(search.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sat.Run(context.Background(), nil); err != nil {
		t.Fatalf("empty Run: %v", err)
	}
	sat.Close()
	sat.Close() // idempotent
	if _, err := sat.Run(context.Background(), satQueries(4, 64)); !errors.Is(err, search.ErrSaturatorClosed) {
		t.Fatalf("Run after Close = %v, want ErrSaturatorClosed", err)
	}

	sat2, err := eng.Saturate(search.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sat2.Close()
	bad := satQueries(80, 64)
	bad[50].TTL = -1 // in the second admission chunk
	if _, err := sat2.Run(context.Background(), bad); err == nil {
		t.Fatal("Run with an invalid query succeeded")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sat2.Run(ctx, satQueries(8, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with canceled ctx = %v, want context.Canceled", err)
	}
}
