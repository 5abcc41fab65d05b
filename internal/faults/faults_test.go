package faults

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/stats"
	"repro/internal/topology"
)

// sink records delivered envelopes.
type sink struct {
	mu   sync.Mutex
	got  []live.Envelope
	dest []topology.NodeID
}

func (s *sink) Send(to topology.NodeID, env live.Envelope) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, env)
	s.dest = append(s.dest, to)
	return nil
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func TestDecisionTraceDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Dup: 0.1, Reorder: 0.05}
	a := Wrap(&sink{}, cfg)
	b := Wrap(&sink{}, cfg)
	ta := a.DecisionTrace(3, 7, 200)
	tb := b.DecisionTrace(3, 7, 200)
	if ta != tb {
		t.Fatalf("same (seed, link) produced different traces:\n%s\n%s", ta, tb)
	}
	if !strings.ContainsRune(ta, 'D') {
		t.Fatalf("no drops in 200 decisions at rate 0.2: %s", ta)
	}
	// A different link draws an independent stream.
	if other := a.DecisionTrace(7, 3, 200); other == ta {
		t.Fatal("reverse link reproduced the forward link's trace")
	}
	// A different seed changes the pattern.
	c := Wrap(&sink{}, Config{Seed: 43, Drop: 0.2, Dup: 0.1, Reorder: 0.05})
	if tc := c.DecisionTrace(3, 7, 200); tc == ta {
		t.Fatal("different seed reproduced the trace")
	}
}

func TestDropRateEmpirical(t *testing.T) {
	const n, rate = 20000, 0.1
	s := &sink{}
	tr := Wrap(s, Config{Seed: 7, Drop: rate})
	for i := 0; i < n; i++ {
		if err := tr.Send(2, live.Envelope{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := tr.Stats().Dropped.Load()
	got := float64(dropped) / n
	if math.Abs(got-rate) > 0.01 {
		t.Fatalf("empirical drop rate %v, want %v ± 0.01", got, rate)
	}
	if s.count() != n-int(dropped) {
		t.Fatalf("delivered %d, want %d", s.count(), n-int(dropped))
	}
}

func TestCrashAndPartitionBlockTraffic(t *testing.T) {
	s := &sink{}
	tr := Wrap(s, Config{Seed: 1})
	tr.Crash(5)
	_ = tr.Send(5, live.Envelope{From: 1}) // to crashed
	_ = tr.Send(2, live.Envelope{From: 5}) // from crashed
	if s.count() != 0 {
		t.Fatalf("crashed node exchanged %d messages", s.count())
	}
	tr.Restart(5)
	_ = tr.Send(5, live.Envelope{From: 1})
	if s.count() != 1 {
		t.Fatal("restart did not unblock traffic")
	}

	tr.Partition([][]topology.NodeID{{1, 2}, {3, 4}})
	_ = tr.Send(3, live.Envelope{From: 1}) // cross-partition: blocked
	_ = tr.Send(2, live.Envelope{From: 1}) // same side: delivered
	_ = tr.Send(9, live.Envelope{From: 1}) // ungrouped node: blocked
	if s.count() != 2 {
		t.Fatalf("partition delivered %d messages, want 2", s.count())
	}
	tr.Heal()
	_ = tr.Send(3, live.Envelope{From: 1})
	if s.count() != 3 {
		t.Fatal("heal did not restore cross-partition traffic")
	}
	if b := tr.Stats().Blocked.Load(); b != 4 {
		t.Fatalf("Blocked = %d, want 4", b)
	}
}

func TestDuplicationDelivers(t *testing.T) {
	s := &sink{}
	tr := Wrap(s, Config{Seed: 11, Dup: 0.5})
	const n = 1000
	for i := 0; i < n; i++ {
		_ = tr.Send(2, live.Envelope{From: 1})
	}
	dups := int(tr.Stats().Duplicated.Load())
	if dups == 0 {
		t.Fatal("no duplicates at rate 0.5")
	}
	if s.count() != n+dups {
		t.Fatalf("delivered %d, want %d", s.count(), n+dups)
	}
}

func TestReorderEventuallyDelivers(t *testing.T) {
	s := &sink{}
	tr := Wrap(s, Config{Seed: 3, Reorder: 0.3, ReorderDelay: time.Millisecond})
	const n = 200
	for i := 0; i < n; i++ {
		_ = tr.Send(2, live.Envelope{From: 1})
	}
	if tr.Stats().Reordered.Load() == 0 {
		t.Fatal("no reorders at rate 0.3")
	}
	deadline := time.After(2 * time.Second)
	for s.count() < n {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d messages delivered", s.count(), n)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Drop: 1},
		{Dup: -0.1},
		{Reorder: 2},
		{DelayMin: 2 * time.Millisecond, DelayMax: time.Millisecond},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c)
		}
	}
	if err := (Config{Seed: 1, Drop: 0.5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// fixedPolicy always forwards to the same targets.
type fixedPolicy struct{ to []topology.NodeID }

func (p fixedPolicy) Select(_ *core.Query, _, _ topology.NodeID, _ []topology.NodeID, _ *stats.Ledger, dst []topology.NodeID) []topology.NodeID {
	return append(dst, p.to...)
}
func (p fixedPolicy) Name() string { return "fixed" }

func TestLossyPolicyDeterministicAndRated(t *testing.T) {
	inner := fixedPolicy{to: []topology.NodeID{10, 11, 12, 13}}
	mk := func() *LossyPolicy { return NewLossyPolicy(inner, 0.25, 99) }
	run := func(p *LossyPolicy) []int {
		q := &core.Query{}
		counts := make([]int, 0, 512)
		for i := 0; i < 512; i++ {
			sel := p.Select(q, topology.NodeID(i%8), topology.None, nil, nil, nil)
			counts = append(counts, len(sel))
		}
		return counts
	}
	a, b := run(mk()), run(mk())
	total, kept := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d diverged: %d vs %d", i, a[i], b[i])
		}
		total += len(inner.to)
		kept += a[i]
	}
	rate := 1 - float64(kept)/float64(total)
	if math.Abs(rate-0.25) > 0.05 {
		t.Fatalf("empirical lossy rate %v, want 0.25 ± 0.05", rate)
	}
	if name := mk().Name(); name != "lossy(fixed,0.25)" {
		t.Fatalf("Name() = %q", name)
	}
}

func TestLossyPolicyZeroRatePassthrough(t *testing.T) {
	inner := fixedPolicy{to: []topology.NodeID{1, 2, 3}}
	p := NewLossyPolicy(inner, 0, 5)
	sel := p.Select(&core.Query{}, 0, topology.None, nil, nil, nil)
	if len(sel) != 3 {
		t.Fatalf("zero-rate policy dropped targets: %v", sel)
	}
}
