package search_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/pkg/search"
)

// testNet is a deterministic in-memory Network: n nodes wired in a
// ring with a +7 chord, where node h holds key k iff h == int(k) % n.
// It is immutable, hence safe for concurrent searches.
type testNet struct {
	n   int
	out [][]search.NodeID
}

func newTestNet(n, degree int) *testNet {
	t := &testNet{n: n, out: make([][]search.NodeID, n)}
	for i := 0; i < n; i++ {
		nb := []search.NodeID{
			search.NodeID((i + 1) % n),
			search.NodeID((i + n - 1) % n),
		}
		if degree > 2 && n > 14 {
			nb = append(nb, search.NodeID((i+7)%n))
			nb = append(nb, search.NodeID((i+n-7)%n))
		}
		t.out[i] = nb
	}
	return t
}

func (t *testNet) Out(id search.NodeID) []search.NodeID { return t.out[id] }
func (t *testNet) Online(search.NodeID) bool            { return true }
func (t *testNet) HasContent(id search.NodeID, key search.Key) bool {
	return int(id) == int(key)%t.n
}

// stepDelay is a pure per-edge delay: deterministic under concurrency.
func stepDelay(from, to search.NodeID) float64 {
	return float64((int(from)*31+int(to)*17)%11+1) / 1000
}

func TestDoFindsRingHolder(t *testing.T) {
	net := newTestNet(10, 2)
	eng, err := search.New(net, search.WithTTL(7), search.WithDelay(func(_, _ search.NodeID) float64 { return 0.1 }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(context.Background(), search.Query{ID: 1, Key: 5, Origin: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Hits[0].Holder != 5 || res.Hits[0].Hops != 5 {
		t.Fatalf("Do = %+v, want a 5-hop hit on node 5", res)
	}
	if res.FirstResultDelay != 1.0 { // 5 forward + 5 reply hops at 100 ms
		t.Errorf("FirstResultDelay = %v, want 1.0", res.FirstResultDelay)
	}
	if res.Messages == 0 || res.Visited == 0 {
		t.Errorf("missing overhead accounting: %+v", res)
	}
}

// TestDoMatchesRawCascade: the facade is a veneer — outcomes are
// field-for-field what a hand-assembled core.Cascade produces.
func TestDoMatchesRawCascade(t *testing.T) {
	net := newTestNet(60, 4)
	eng, err := search.New(net, search.WithTTL(5), search.WithDelay(stepDelay))
	if err != nil {
		t.Fatal(err)
	}
	raw := &core.Cascade{
		Graph:   net,
		Content: core.ContentFunc(net.HasContent),
		Forward: core.Flood{},
		Delay:   stepDelay,
	}
	for key := 0; key < 40; key++ {
		q := search.Query{ID: uint64(key), Key: search.Key(key), Origin: search.NodeID(key % 3)}
		got, err := eng.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := raw.Run(&core.Query{ID: core.QueryID(key), Key: q.Key, Origin: q.Origin, TTL: 5})
		if got.Messages != want.Messages || got.ReplyMessages != want.ReplyMessages ||
			got.Visited != want.Visited || got.FirstResultDelay != want.FirstResultDelay ||
			!reflect.DeepEqual(got.Hits, want.Results) {
			t.Fatalf("key %d: facade %+v != raw %+v", key, got, want)
		}
	}
}

func TestQueryDefaultsAndOverrides(t *testing.T) {
	net := newTestNet(30, 2)
	eng, err := search.New(net, search.WithTTL(2), search.WithMaxResults(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Default TTL 2 cannot reach node 5 on the plain ring.
	res, err := eng.Do(ctx, search.Query{Key: 5, Origin: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Fatalf("TTL-2 search found %+v, want miss", res.Hits)
	}
	// Per-query TTL override reaches it.
	res, err = eng.Do(ctx, search.Query{Key: 5, Origin: 0, TTL: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("TTL-6 override still missed")
	}

	// MaxResults default 1 stops after the first hit even when two
	// holders are equidistant; -1 lifts the cap.
	wide, err := search.New(newTestNet(10, 2), search.WithTTL(5))
	if err != nil {
		t.Fatal(err)
	}
	one, err := wide.Do(ctx, search.Query{Key: 15, Origin: 0, MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	all, err := wide.Do(ctx, search.Query{Key: 15, Origin: 0, MaxResults: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Hits) != 1 || len(all.Hits) != 1 {
		t.Logf("one=%+v all=%+v", one, all) // ring holds one copy; counts differ on richer nets
	}

	// Invalid queries error instead of panicking through the facade.
	if _, err := eng.Do(ctx, search.Query{Key: 1, Origin: 0, TTL: -3}); err == nil {
		t.Error("negative TTL did not error")
	}
}

func TestDoCanceledContext(t *testing.T) {
	net := newTestNet(1000, 4)
	eng, err := search.New(net, search.WithTTL(50))
	if err != nil {
		t.Fatal(err)
	}

	// Already-canceled context: no work happens.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Do(ctx, search.Query{Key: 999999, Origin: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do on canceled ctx = %v, want context.Canceled", err)
	}

	// Mid-cascade cancellation: stop between hops after ~100 messages,
	// far short of the thousands a TTL-50 flood of a 1000-node network
	// generates.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	msgs := 0
	q := search.Query{Key: 999999, Origin: 0, OnMessage: func(_, _ search.NodeID) {
		msgs++
		if msgs == 100 {
			cancel()
		}
	}}
	if _, err := eng.Do(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-cascade cancel = %v, want context.Canceled", err)
	}
	if msgs > 1200 { // a few in-flight arrivals may still fan out once
		t.Errorf("cascade kept flooding after cancel: %d messages", msgs)
	}
}

// TestBatchMatchesSequentialDo: Batch at several worker counts (its
// one-call Saturator has GOMAXPROCS workers) is byte-identical to
// sequential Do — including with a stochastic policy, whose per-query
// streams derive from the query, not from shared state.
func TestBatchMatchesSequentialDo(t *testing.T) {
	net := newTestNet(64, 4)
	mk := func() *search.Engine {
		eng, err := search.New(net,
			search.WithPolicy("random-2"),
			search.WithSeed(7),
			search.WithTTL(8),
			search.WithDelay(stepDelay))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	qs := make([]search.Query, 40)
	for i := range qs {
		qs[i] = search.Query{ID: uint64(i), Key: search.Key(i * 3), Origin: search.NodeID(i % 64)}
	}

	seq := make([]search.Result, len(qs))
	seqEng := mk()
	for i, q := range qs {
		r, err := seqEng.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = r
	}
	want, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4, 32} {
		runtime.GOMAXPROCS(workers)
		got, err := mk().Batch(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(want) {
			t.Fatalf("Batch(workers=%d) diverges from sequential Do", workers)
		}
	}
}

func TestBatchPropagatesErrors(t *testing.T) {
	eng, err := search.New(newTestNet(10, 2), search.WithTTL(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Batch(context.Background(), []search.Query{
		{Key: 1, Origin: 0},
		{Key: 2, Origin: 0, TTL: -1},
	})
	if err == nil {
		t.Fatal("batch with invalid query succeeded")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Batch(ctx, []search.Query{{Key: 1, Origin: 0}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch = %v, want context.Canceled", err)
	}
}

func TestExplore(t *testing.T) {
	net := newTestNet(12, 2)
	eng, err := search.New(net, search.WithTTL(2))
	if err != nil {
		t.Fatal(err)
	}
	msgs := 0
	out, err := eng.Explore(context.Background(), search.Exploration{
		Keys:      []search.Key{2, 3, 99},
		Origin:    0,
		OnMessage: func(_, _ search.NodeID) { msgs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(msgs) != out.Messages {
		t.Errorf("observer saw %d messages, outcome says %d", msgs, out.Messages)
	}
	// TTL 2 reaches nodes 1, 2, 10, 11: node 2 holds key 2 (2%12), the
	// others hold none of the probes.
	if len(out.Findings) != 4 {
		t.Fatalf("explored %d nodes, want 4: %+v", len(out.Findings), out.Findings)
	}
	holders := out.Holders(2)
	if len(holders) != 1 || holders[0] != 2 {
		t.Errorf("Holders(2) = %v, want [2]", holders)
	}
	// The outcome is caller-owned: a subsequent search through the same
	// engine must not clobber it.
	snap, _ := json.Marshal(out)
	if _, err := eng.Do(context.Background(), search.Query{Key: 5, Origin: 0, TTL: 6}); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(out)
	if string(snap) != string(after) {
		t.Error("explore outcome aliased pooled memory")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := search.New(nil); err == nil {
		t.Error("New(nil) succeeded")
	}
	net := newTestNet(4, 2)
	if _, err := search.New(net, search.WithTTL(-1)); err == nil {
		t.Error("WithTTL(-1) accepted")
	}
	if _, err := search.New(net, search.WithDeepening(nil, 0)); err == nil {
		t.Error("empty deepening accepted")
	}
	if _, err := search.New(net, search.WithDeepening([]int{2, 2}, 0)); err == nil {
		t.Error("non-increasing deepening accepted")
	}
}

func TestDeepening(t *testing.T) {
	net := newTestNet(20, 2)
	eng, err := search.New(net,
		search.WithDeepening([]int{1, 2, 4, 8}, 1.5),
		search.WithDelay(func(_, _ search.NodeID) float64 { return 0.1 }))
	if err != nil {
		t.Fatal(err)
	}
	// Holder 4 hops away: satisfied on the third cycle (TTL 4), so two
	// failed cycles contribute 2 * 1.5 s of waiting.
	res, err := eng.Do(context.Background(), search.Query{Key: 4, Origin: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Hits[0].Holder != 4 {
		t.Fatalf("deepening missed: %+v", res)
	}
	if res.FirstResultDelay != 2*1.5+0.8 { // 4 fwd + 4 reply hops at 0.1
		t.Errorf("FirstResultDelay = %v, want 3.8", res.FirstResultDelay)
	}
}

// TestScratchPooledAcrossCalls: results survive the next call on the
// same engine (no aliasing of pooled buffers leaks to callers).
func TestScratchPooledAcrossCalls(t *testing.T) {
	net := newTestNet(30, 4)
	eng, err := search.New(net, search.WithTTL(5), search.WithForwardWhenHit(true))
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Do(context.Background(), search.Query{Key: 7, Origin: 0, MaxResults: -1})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := json.Marshal(first)
	for i := 0; i < 50; i++ {
		if _, err := eng.Do(context.Background(), search.Query{Key: search.Key(i), Origin: 3}); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := json.Marshal(first)
	if string(snap) != string(after) {
		t.Error("Result aliased pooled scratch memory")
	}
}
