package gnutella

import (
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

func TestVariantStrings(t *testing.T) {
	for _, s := range []string{
		SymmetricUpdate.String(), AsymmetricUpdate.String(),
		BenefitBR.String(), BenefitHitCount.String(), BenefitHitsPerLatency.String(),
		ForwardFlood.String(), ForwardDirected2.String(), ForwardRandom2.String(),
	} {
		if s == "" {
			t.Fatal("variant knob with empty name")
		}
	}
}

func TestAsymmetricUpdateRuns(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.Variant.Update = AsymmetricUpdate
	s := New(c)
	m := s.Run()
	if m.Reconfigurations == 0 {
		t.Fatal("asymmetric variant never reconfigured")
	}
	if !s.Network().Consistent() {
		t.Fatal("asymmetric network inconsistent after run")
	}
	// Pure asymmetric: incoming lists are unbounded, outgoing capped.
	for i := 0; i < 100; i++ {
		out := s.Network().Node(topology.NodeID(i)).Out.Len()
		if out > c.Neighbors {
			t.Fatalf("node %d out-degree %d exceeds cap", i, out)
		}
	}
}

func TestDirectedBFTReducesMessages(t *testing.T) {
	flood := tinyConfig(Dynamic, 3)
	directed := tinyConfig(Dynamic, 3)
	directed.Variant.Forward = ForwardDirected2
	fm := New(flood).Run()
	dm := New(directed).Run()
	if dm.Meter.Total(0) >= fm.Meter.Total(0) {
		t.Fatalf("directed BFT did not reduce messages: %d vs %d",
			dm.Meter.Total(0), fm.Meter.Total(0))
	}
}

func TestRandomKReducesMessages(t *testing.T) {
	flood := tinyConfig(Dynamic, 3)
	random := tinyConfig(Dynamic, 3)
	random.Variant.Forward = ForwardRandom2
	fm := New(flood).Run()
	rm := New(random).Run()
	if rm.Meter.Total(0) >= fm.Meter.Total(0) {
		t.Fatalf("random-2 did not reduce messages: %d vs %d",
			rm.Meter.Total(0), fm.Meter.Total(0))
	}
}

func TestBenefitVariantsRun(t *testing.T) {
	for _, k := range []BenefitKind{BenefitBR, BenefitHitCount, BenefitHitsPerLatency} {
		c := tinyConfig(Dynamic, 2)
		c.Variant.Benefit = k
		m := New(c).Run()
		if m.Hits.Total() == 0 {
			t.Fatalf("benefit %v produced no hits", k)
		}
	}
}

func TestIterativeDeepeningVariant(t *testing.T) {
	// Deepening pays off when many queries are satisfied in the first
	// cycle ([10]); a content-rich library makes depth-1 hits common.
	rich := func(ttl int) Config {
		c := tinyConfig(Dynamic, ttl)
		c.Music.Songs = 2000
		c.Music.Categories = 50
		c.Music.LibraryMean = 200
		c.Music.LibraryStd = 40
		return c
	}
	plain := rich(3)
	deep := rich(3)
	deep.Variant.IterativeDeepening = []int{1, 3}
	deep.Variant.DeepeningTimeout = 2.0
	pm := New(plain).Run()
	dm := New(deep).Run()
	if dm.Hits.Total() == 0 {
		t.Fatal("deepening produced no hits")
	}
	// Queries satisfied at depth 1 skip the depth-3 cycle entirely, so
	// deepening must save messages relative to one full-depth flood.
	if dm.Meter.Total(0) >= pm.Meter.Total(0) {
		t.Fatalf("deepening did not reduce messages: %d vs %d",
			dm.Meter.Total(0), pm.Meter.Total(0))
	}
	// And it must not lose hits: every query still reaches depth 3 if
	// unsatisfied earlier.
	if float64(dm.Hits.Total()) < 0.9*float64(pm.Hits.Total()) {
		t.Fatalf("deepening lost hits: %v vs %v", dm.Hits.Total(), pm.Hits.Total())
	}
}

func TestLocalIndicesReduceMessagesKeepHits(t *testing.T) {
	plain := tinyConfig(Dynamic, 2)
	indexed := tinyConfig(Dynamic, 2)
	indexed.Variant.UseLocalIndices = true
	pm := New(plain).Run()
	im := New(indexed).Run()
	// Technique (iii) of [10]: terminate the flood one hop early with
	// the radius-1 index answering for the last hop — far fewer
	// messages, comparable coverage.
	if im.Meter.Total(0) >= pm.Meter.Total(0) {
		t.Fatalf("local indices did not reduce messages: %d vs %d",
			im.Meter.Total(0), pm.Meter.Total(0))
	}
	if float64(im.Hits.Total()) < 0.8*float64(pm.Hits.Total()) {
		t.Fatalf("local indices lost coverage: %v vs %v hits",
			im.Hits.Total(), pm.Hits.Total())
	}
}

func TestDriftChangesPreferences(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.DriftAtHour = 3
	c.DriftFraction = 1.0 // everyone drifts
	s := New(c)
	before := make([]int, len(s.users))
	for i, u := range s.users {
		before[i] = u.Favorite
	}
	s.Run()
	changed := 0
	for i, u := range s.users {
		if u.Favorite != before[i] {
			changed++
		}
	}
	// With 50 categories and Zipf reassignment, the vast majority of
	// re-rolls land on a different favorite.
	if changed < len(s.users)/2 {
		t.Fatalf("only %d/%d users drifted", changed, len(s.users))
	}
}

func TestDriftValidation(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.DriftFraction = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("drift fraction 1.5 accepted")
	}
	c = tinyConfig(Dynamic, 2)
	c.LedgerDecayPerHour = -0.1
	if err := c.Validate(); err == nil {
		t.Fatal("negative decay accepted")
	}
}

func TestLedgerDecayRuns(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.LedgerDecayPerHour = 0.5
	m := New(c).Run()
	if m.Hits.Total() == 0 {
		t.Fatal("decay run produced no hits")
	}
}

func TestDynamicRecoversFromDrift(t *testing.T) {
	// After a mass preference drift, the dynamic system must re-adapt:
	// hits in the final hours recover above the immediate post-drift
	// level.
	c := tinyConfig(Dynamic, 2)
	c.DurationHours = 16
	c.DriftAtHour = 8
	c.DriftFraction = 1.0
	m := New(c).Run()
	justAfter := m.Hits.Window(8, 10)
	recovered := m.Hits.Window(14, 16)
	if recovered <= justAfter {
		t.Fatalf("no recovery after drift: hours 8-10 %v, hours 14-16 %v",
			justAfter, recovered)
	}
}

func TestTrialPeriodVariantRuns(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.Variant.TrialPeriodHours = 1
	s := New(c)
	m := s.Run()
	if m.Hits.Total() == 0 {
		t.Fatal("trial variant produced no hits")
	}
	if !s.Network().Consistent() {
		t.Fatal("network inconsistent with trial periods")
	}
}

func TestTrialPeriodResolvesTrials(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	c.Variant.TrialPeriodHours = 1
	s := New(c)
	m := s.Run()
	invites := m.Meter.Total(3) // MsgInvite
	if invites == 0 {
		t.Fatal("no invitations, trials never started")
	}
	// Most probations must have been resolved (kept or evicted) during
	// the run; only the last hour's accepts may still be open.
	if kept, evicted := s.trials.Expire((*updateEnv)(s), math.Inf(1)); uint64(kept+evicted)*4 > invites {
		t.Fatalf("%d of %d trials still open at run end", kept+evicted, invites)
	}
}

func TestTraceCapturesProtocolEvents(t *testing.T) {
	c := tinyConfig(Dynamic, 2)
	var buf trace.Buffer
	c.Trace = &buf
	m := New(c).Run()
	count := map[trace.Kind]int{}
	for _, e := range buf.Events() {
		count[e.Kind]++
	}
	if count[trace.KindQuery] != int(m.Queries.Total()) {
		t.Fatalf("traced %d queries, metrics counted %v",
			count[trace.KindQuery], m.Queries.Total())
	}
	if count[trace.KindHit] != int(m.Hits.Total()) {
		t.Fatalf("traced %d hits, metrics counted %v",
			count[trace.KindHit], m.Hits.Total())
	}
	if uint64(count[trace.KindLogin]) != m.LoginCount {
		t.Fatalf("traced %d logins, metrics counted %d",
			count[trace.KindLogin], m.LoginCount)
	}
	if uint64(count[trace.KindReconfig]) != m.Reconfigurations {
		t.Fatalf("traced %d reconfigs, metrics counted %d",
			count[trace.KindReconfig], m.Reconfigurations)
	}
	if count[trace.KindInvite] == 0 || count[trace.KindEvict] == 0 {
		t.Fatal("control events not traced")
	}
	// Event times must be non-decreasing (simulator order).
	prev := 0.0
	for _, e := range buf.Events() {
		if e.T < prev {
			t.Fatalf("trace out of order: %v after %v", e.T, prev)
		}
		prev = e.T
	}
}

func TestTraceDisabledIsFree(t *testing.T) {
	// A nil sink must behave identically to a Discard sink run.
	a := New(tinyConfig(Dynamic, 2)).Run()
	c := tinyConfig(Dynamic, 2)
	c.Trace = trace.Discard
	b := New(c).Run()
	if a.Hits.Total() != b.Hits.Total() || a.Meter.Total(0) != b.Meter.Total(0) {
		t.Fatal("tracing changed simulation behavior")
	}
}
