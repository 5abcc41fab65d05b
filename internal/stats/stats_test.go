package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestTouchCreatesOnce(t *testing.T) {
	l := NewLedger()
	a := l.Touch(1)
	b := l.Touch(1)
	if a != b {
		t.Fatal("Touch must return the same record")
	}
	if len(l.entries) != 1 {
		t.Fatalf("%d records, want 1", len(l.entries))
	}
}

func TestGetMissingIsNil(t *testing.T) {
	if NewLedger().Get(5) != nil {
		t.Fatal("Get on missing peer must be nil")
	}
}

func TestReset(t *testing.T) {
	l := NewLedger()
	l.Touch(1).Benefit = 10
	l.Reset(1)
	if l.Get(1) != nil {
		t.Fatal("Reset must erase the record")
	}
}

func TestMeanLatency(t *testing.T) {
	r := &Record{}
	if r.MeanLatency() != 0 {
		t.Fatal("empty record mean latency must be 0")
	}
	r.Replies = 4
	r.LatencySum = 2.0
	if r.MeanLatency() != 0.5 {
		t.Fatalf("mean latency %v", r.MeanLatency())
	}
}

func TestPeersSorted(t *testing.T) {
	l := NewLedger()
	for _, id := range []topology.NodeID{5, 1, 9, 3} {
		l.Touch(id)
	}
	want := []topology.NodeID{1, 3, 5, 9}
	for i := range want {
		if got := l.entries[i].peer; got != want[i] {
			t.Fatalf("record %d is peer %d, want %d", i, got, want[i])
		}
	}
}

func TestDecay(t *testing.T) {
	l := NewLedger()
	r := l.Touch(1)
	r.Benefit, r.LatencySum, r.CostSaved = 10, 4, 8
	r.Hits = 3
	l.Decay(0.5)
	if r.Benefit != 5 || r.LatencySum != 2 || r.CostSaved != 4 {
		t.Fatalf("decay wrong: %+v", r)
	}
	if r.Hits != 3 {
		t.Fatal("decay must not touch integer counters")
	}
}

func TestDecayPanicsOutOfRange(t *testing.T) {
	for _, f := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Decay(%v) did not panic", f)
				}
			}()
			NewLedger().Decay(f)
		}()
	}
}

func TestBenefitImplementations(t *testing.T) {
	r := &Record{Benefit: 7, Hits: 3, Replies: 2, LatencySum: 1.0, CostSaved: 11}
	cases := []struct {
		b    Benefit
		want float64
	}{
		{Cumulative{}, 7},
		{HitCount{}, 3},
		{HitsPerLatency{}, 3 / 0.5},
		{CostSaved{}, 11},
	}
	for _, tc := range cases {
		if got := tc.b.Score(r); got != tc.want {
			t.Fatalf("%s.Score = %v, want %v", tc.b.Name(), got, tc.want)
		}
		if tc.b.Name() == "" {
			t.Fatal("benefit must have a name")
		}
	}
}

func TestHitsPerLatencyZeroLatency(t *testing.T) {
	r := &Record{Hits: 5}
	if got := (HitsPerLatency{}).Score(r); got != 5 {
		t.Fatalf("zero-latency score = %v, want hits", got)
	}
}

func TestRankDescendingWithTieBreak(t *testing.T) {
	l := NewLedger()
	l.Touch(3).Benefit = 5
	l.Touch(1).Benefit = 5
	l.Touch(2).Benefit = 9
	got := l.Rank(Cumulative{}, nil)
	if got[0].Peer != 2 || got[1].Peer != 1 || got[2].Peer != 3 {
		t.Fatalf("Rank = %v", got)
	}
}

func TestRankExcludes(t *testing.T) {
	l := NewLedger()
	l.Touch(1).Benefit = 5
	l.Touch(2).Benefit = 9
	got := l.Rank(Cumulative{}, func(id topology.NodeID) bool { return id == 2 })
	if len(got) != 1 || got[0].Peer != 1 {
		t.Fatalf("Rank with exclude = %v", got)
	}
}

func TestTopK(t *testing.T) {
	l := NewLedger()
	for i := 1; i <= 5; i++ {
		l.Touch(topology.NodeID(i)).Benefit = float64(i)
	}
	got := l.TopK(Cumulative{}, 2, nil)
	if len(got) != 2 || got[0] != 5 || got[1] != 4 {
		t.Fatalf("TopK = %v", got)
	}
	if n := len(l.TopK(Cumulative{}, 99, nil)); n != 5 {
		t.Fatalf("TopK with k>len returned %d", n)
	}
}

func TestLeast(t *testing.T) {
	l := NewLedger()
	l.Touch(1).Benefit = 5
	l.Touch(2).Benefit = 1
	l.Touch(3).Benefit = 9
	if got := l.Least(Cumulative{}, []topology.NodeID{1, 2, 3}); got != 2 {
		t.Fatalf("Least = %v", got)
	}
}

func TestLeastUnknownPeerScoresZero(t *testing.T) {
	l := NewLedger()
	l.Touch(1).Benefit = 5
	// Peer 7 has no record: score 0, must be least.
	if got := l.Least(Cumulative{}, []topology.NodeID{1, 7}); got != 7 {
		t.Fatalf("Least = %v, want unknown peer 7", got)
	}
}

func TestLeastEmpty(t *testing.T) {
	if got := NewLedger().Least(Cumulative{}, nil); got != topology.None {
		t.Fatalf("Least(empty) = %v", got)
	}
}

func TestLeastTieBreaksByID(t *testing.T) {
	l := NewLedger()
	l.Touch(4).Benefit = 1
	l.Touch(2).Benefit = 1
	if got := l.Least(Cumulative{}, []topology.NodeID{4, 2}); got != 2 {
		t.Fatalf("Least tie-break = %v, want 2", got)
	}
}

// Property: Rank returns a permutation of the non-excluded peers in
// non-increasing score order.
func TestQuickRankSorted(t *testing.T) {
	f := func(benefits []float64) bool {
		l := NewLedger()
		for i, b := range benefits {
			l.Touch(topology.NodeID(i)).Benefit = math.Abs(b)
		}
		ranked := l.Rank(Cumulative{}, nil)
		if len(ranked) != len(benefits) {
			return false
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Score > ranked[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Least always returns a member of the candidate list with a
// minimal score.
func TestQuickLeastIsMinimal(t *testing.T) {
	f := func(benefits []float64) bool {
		if len(benefits) == 0 {
			return true
		}
		l := NewLedger()
		cands := make([]topology.NodeID, len(benefits))
		for i, b := range benefits {
			id := topology.NodeID(i)
			cands[i] = id
			l.Touch(id).Benefit = math.Abs(b)
		}
		least := l.Least(Cumulative{}, cands)
		leastScore := l.Get(least).Benefit
		for _, id := range cands {
			if l.Get(id).Benefit < leastScore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRank(b *testing.B) {
	l := NewLedger()
	for i := 0; i < 200; i++ {
		l.Touch(topology.NodeID(i)).Benefit = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Rank(Cumulative{}, nil)
	}
}

func TestHitRatePerLatency(t *testing.T) {
	b := HitRatePerLatency{}
	if b.Score(&Record{}) != 0 {
		t.Fatal("no replies must score 0")
	}
	// 3 hits over 4 replies, mean latency 0.5s -> (3/4)/0.5 = 1.5.
	r := &Record{Hits: 3, Replies: 4, LatencySum: 2}
	if got := b.Score(r); got != 1.5 {
		t.Fatalf("score = %v, want 1.5", got)
	}
	if b.Name() == "" {
		t.Fatal("benefit must have a name")
	}
}

func TestHitRatePerLatencySmoothingDampensFlukes(t *testing.T) {
	b := HitRatePerLatency{Smoothing: 8}
	fluke := &Record{Hits: 1, Replies: 1, LatencySum: 0.5}
	steady := &Record{Hits: 40, Replies: 100, LatencySum: 50}
	if b.Score(fluke) >= b.Score(steady) {
		t.Fatalf("one-off fluke (%v) outranked steady peer (%v)",
			b.Score(fluke), b.Score(steady))
	}
}

func TestHitRatePerLatencyZeroLatency(t *testing.T) {
	b := HitRatePerLatency{}
	r := &Record{Hits: 2, Replies: 4}
	if got := b.Score(r); got != 0.5 {
		t.Fatalf("zero-latency score = %v, want raw rate 0.5", got)
	}
}
