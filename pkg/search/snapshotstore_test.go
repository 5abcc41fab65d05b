package search_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/pkg/search"
)

// storeWorld is the shared fixture of the snapshot-store suite: a
// mutable build-side network, its store, and a pure content oracle
// (node holds key iff their residues mod 97 agree — independent of
// topology, so churn never changes who holds what).
func storeWorld(n int) (*topology.Network, *topology.SnapshotStore, core.ContentFunc) {
	net := topology.NewNetwork(topology.Symmetric, n, 8, 8)
	for i := 0; i < n; i++ {
		net.Connect(topology.NodeID(i), topology.NodeID((i+1)%n))
		net.Connect(topology.NodeID(i), topology.NodeID((i+13)%n))
	}
	content := core.ContentFunc(func(id topology.NodeID, key core.Key) bool {
		return int(id)%97 == int(key)%97
	})
	return net, topology.NewSnapshotStore(net), content
}

// churnDeltas draws one epoch's delta batch: mostly rewires (paired
// disconnect/connect), some raw connects, the occasional isolate.
func churnDeltas(rnd *rand.Rand, n, count int) []topology.Delta {
	ds := make([]topology.Delta, 0, count)
	for len(ds) < count {
		src := topology.NodeID(rnd.Intn(n))
		dst := topology.NodeID(rnd.Intn(n))
		switch rnd.Intn(8) {
		case 0:
			ds = append(ds, topology.Delta{Op: topology.OpIsolate, Src: src})
		case 1, 2:
			ds = append(ds, topology.Delta{Op: topology.OpDisconnect, Src: src, Dst: dst})
		default:
			ds = append(ds, topology.Delta{Op: topology.OpConnect, Src: src, Dst: dst})
		}
	}
	return ds
}

// TestWithSnapshotStoreMatchesSnapshot: on a static network the
// store-backed Engine is byte-identical to an Engine over the frozen
// CSR — the store adds an epoch tag and nothing else.
func TestWithSnapshotStoreMatchesSnapshot(t *testing.T) {
	net, store, content := storeWorld(120)
	frozen, err := search.New(search.Over(net.Freeze(), content),
		search.WithTTL(4), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	served, err := search.New(search.OverContent(content),
		search.WithSnapshotStore(store), search.WithTTL(4), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for key := 0; key < 40; key++ {
		q := search.Query{ID: uint64(key), Key: search.Key(key), Origin: search.NodeID(key * 3 % net.Len())}
		a, err := frozen.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := served.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if b.Epoch != 1 {
			t.Fatalf("key %d: served from epoch %d, want 1", key, b.Epoch)
		}
		b.Epoch = 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("key %d: store-served %+v != frozen %+v", key, b, a)
		}
	}
}

// TestSnapshotStoreHammerQuiescedReplay is the PR's acceptance test: 32
// concurrent readers hammer queries through a store-backed Engine while
// the writer forces 100 epoch swaps under their feet, every published
// snapshot is cloned as it appears, and afterwards every single outcome
// is replayed on a quiesced fresh Engine over the clone of the epoch
// that served it — byte-for-byte identical, proving no query ever
// observed a half-frozen graph. Run under -race in CI.
func TestSnapshotStoreHammerQuiescedReplay(t *testing.T) {
	const (
		n         = 600
		readers   = 32
		swaps     = 100
		perReader = 20
	)
	_, store, content := storeWorld(n)
	eng, err := search.New(search.OverContent(content),
		search.WithSnapshotStore(store), search.WithTTL(3))
	if err != nil {
		t.Fatal(err)
	}

	// Clone every published snapshot the moment it appears: the buffer
	// re-enters rotation once drained, but the clone stays comparable.
	epochs := map[uint64]*topology.CSR{}
	snap := func() {
		pin := store.Acquire()
		epochs[pin.Epoch()] = pin.Graph().Clone()
		pin.Release()
	}
	snap() // epoch 1

	type outcome struct {
		q   search.Query
		res search.Result
	}
	ctx := context.Background()
	var (
		wg     sync.WaitGroup
		issued atomic.Int64
	)
	recorded := make([][]outcome, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < perReader; i++ {
				// Interlock with the writer: a reader's i-th query waits
				// for epoch 1+5i, while the writer's s-th swap waits for
				// s*total/(swaps+1) issued queries — so neither side can
				// run to completion before the other starts, and queries
				// straddle swaps at every scheduling.
				for store.Epoch() < uint64(1+i*swaps/perReader) {
					runtime.Gosched()
				}
				q := search.Query{
					ID:     uint64(r*perReader + i),
					Key:    search.Key((r*31 + i*7) % 500),
					Origin: search.NodeID((r*53 + i*17) % n),
				}
				res, err := eng.Do(ctx, q)
				if err != nil {
					t.Errorf("reader %d query %d: %v", r, i, err)
					return
				}
				// A single goroutine's epochs are monotone: the store's
				// pointer only moves forward.
				if res.Epoch < last {
					t.Errorf("reader %d: epoch went backwards %d -> %d", r, last, res.Epoch)
					return
				}
				last = res.Epoch
				recorded[r] = append(recorded[r], outcome{q, res})
				issued.Add(1)
			}
		}()
	}

	// The writer paces its 100 forced swaps against reader progress so
	// queries genuinely straddle swaps at every scheduling.
	total := int64(readers * perReader)
	rnd := rand.New(rand.NewSource(97))
	for s := 1; s <= swaps; s++ {
		for issued.Load() < int64(s)*total/(swaps+1) {
			runtime.Gosched()
		}
		store.Apply(churnDeltas(rnd, n, 20))
		snap()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced replay: group outcomes by serving epoch, rebuild a fresh
	// fixed-graph Engine per epoch over the clone, and demand identity.
	byEpoch := map[uint64][]outcome{}
	distinct := map[uint64]bool{}
	for _, rec := range recorded {
		for _, o := range rec {
			byEpoch[o.res.Epoch] = append(byEpoch[o.res.Epoch], o)
			distinct[o.res.Epoch] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("queries landed on only %d distinct epochs; the hammer degenerated", len(distinct))
	}
	for epoch, outs := range byEpoch {
		csr, ok := epochs[epoch]
		if !ok {
			t.Fatalf("query served from epoch %d, which was never published", epoch)
		}
		replay, err := search.New(search.Over(csr, content),
			search.WithTTL(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			want, err := replay.Do(ctx, o.q)
			if err != nil {
				t.Fatal(err)
			}
			got := o.res
			got.Epoch = 0 // the replay Engine is not store-backed
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch %d query %d: live %+v != quiesced replay %+v",
					epoch, o.q.ID, got, want)
			}
		}
	}
}

// TestSnapshotStorePostSwapMatchesFreshFreeze is the differential
// suite: after a run of delta-published epochs, queries through the
// store-backed Engine are identical to a stop-the-world Engine frozen
// fresh from the mutated network — the double buffer converges to
// exactly what a full pause-and-refreeze would have produced.
func TestSnapshotStorePostSwapMatchesFreshFreeze(t *testing.T) {
	const n = 300
	net, store, content := storeWorld(n)
	served, err := search.New(search.OverContent(content),
		search.WithSnapshotStore(store), search.WithTTL(4), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	for epoch := 0; epoch < 12; epoch++ {
		store.Apply(churnDeltas(rnd, n, 40))
	}

	fresh, err := search.New(search.Over(net.Freeze(), content),
		search.WithTTL(4), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for key := 0; key < 60; key++ {
		q := search.Query{ID: uint64(key), Key: search.Key(key), Origin: search.NodeID(key * 5 % n)}
		a, err := served.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Epoch != 13 {
			t.Fatalf("key %d: served from epoch %d, want 13", key, a.Epoch)
		}
		a.Epoch = 0
		b, err := fresh.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("key %d: post-swap %+v != fresh freeze %+v", key, a, b)
		}
	}
}

// TestSaturateUnderChurn: the saturation shard keeps draining while the
// writer publishes epochs, no query errors, every result carries a
// plausible epoch tag, and once the writer quiesces a final saturated
// run is byte-identical to a stop-the-world freeze of the final state.
func TestSaturateUnderChurn(t *testing.T) {
	const n = 400
	net, store, content := storeWorld(n)
	eng, err := search.New(search.OverContent(content),
		search.WithSnapshotStore(store), search.WithTTL(3))
	if err != nil {
		t.Fatal(err)
	}
	sat, err := eng.Saturate(search.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sat.Close()

	mkBatch := func(round int) []search.Query {
		qs := make([]search.Query, 200)
		for i := range qs {
			qs[i] = search.Query{
				ID:     uint64(round*1000 + i),
				Key:    search.Key((round*17 + i) % 400),
				Origin: search.NodeID((round*29 + i*3) % n),
			}
		}
		return qs
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rnd := rand.New(rand.NewSource(31))
		for {
			select {
			case <-stop:
				return
			default:
				store.Apply(churnDeltas(rnd, n, 15))
				runtime.Gosched()
			}
		}
	}()
	for round := 0; round < 8; round++ {
		results, err := sat.Run(ctx, mkBatch(round))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Epoch < 1 {
				t.Fatalf("round %d query %d: missing epoch tag", round, i)
			}
		}
	}
	close(stop)
	writer.Wait()

	final := store.Epoch()
	fresh, err := search.New(search.Over(net.Freeze(), content),
		search.WithTTL(3))
	if err != nil {
		t.Fatal(err)
	}
	qs := mkBatch(99)
	got, err := sat.Run(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := fresh.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i]
		if g.Epoch != final {
			t.Fatalf("post-quiesce query %d served from epoch %d, want %d", i, g.Epoch, final)
		}
		g.Epoch = 0
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("post-quiesce query %d: saturated %+v != fresh freeze %+v", i, g, want)
		}
	}
}

// TestWithSnapshotStoreValidates covers the option's error edges.
func TestWithSnapshotStoreValidates(t *testing.T) {
	if _, err := search.New(newTestNet(10, 2), search.WithSnapshotStore(nil)); err == nil ||
		!strings.Contains(err.Error(), "nil store") {
		t.Fatalf("nil store: err = %v, want nil-store complaint", err)
	}
}
