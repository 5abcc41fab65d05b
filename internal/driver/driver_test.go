package driver

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/search"
)

// noContent is the trivial oracle for sessions that only exercise the
// timeline.
var noContent = core.ContentFunc(func(topology.NodeID, core.Key) bool { return false })

// allContent answers everywhere.
var allContent = core.ContentFunc(func(topology.NodeID, core.Key) bool { return true })

func baseSpec(nodes int) Spec {
	return Spec{
		Nodes:    nodes,
		Relation: topology.Symmetric,
		OutCap:   4,
		InCap:    4,
		Duration: 3600,
		Content:  noContent,
	}
}

func TestSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"zero nodes":      func(s *Spec) { s.Nodes = 0 },
		"zero duration":   func(s *Spec) { s.Duration = 0 },
		"no content":      func(s *Spec) { s.Content = nil },
		"orphan arrivals": func(s *Spec) { s.Arrivals = Poisson{RatePerHour: 1} },
		"bad arrivals": func(s *Spec) {
			s.Arrivals = Poisson{}
			s.OnQuery = func(topology.NodeID, float64) {}
		},
		"bad churn": func(s *Spec) { s.Churn = &workload.ChurnConfig{MeanOnline: -1, MeanOffline: 1} },
		"bad flash": func(s *Spec) {
			s.Arrivals = FlashCrowd{BaseRatePerHour: 1, Peak: 0.5, DurationHours: 1}
			s.OnQuery = func(topology.NodeID, float64) {}
		},
	} {
		spec := baseSpec(10)
		mutate(&spec)
		if _, err := New(spec, rng.New(1)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := New(baseSpec(10), rng.New(1)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestChurnStationaryDistribution is the stationary-distribution
// property test of the session's churn bookkeeping: with on/off means
// (m_on, m_off) the time-average online fraction must converge to
// m_on/(m_on+m_off), both for the symmetric 0.5 case and an asymmetric
// split. The driver initializes nodes in the stationary distribution,
// so no warmup discard is needed.
func TestChurnStationaryDistribution(t *testing.T) {
	for _, tc := range []struct {
		name            string
		onMean, offMean float64
	}{
		{"half", 3 * 3600, 3 * 3600},
		{"three-quarters", 3 * 3600, 3600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes = 300
			const horizon = 200 * 3600.0
			churn := &workload.ChurnConfig{MeanOnline: tc.onMean, MeanOffline: tc.offMean}
			spec := baseSpec(nodes)
			spec.Duration = horizon
			spec.Churn = churn

			var onTime float64
			last := make([]float64, nodes)
			wasOn := make([]bool, nodes)
			track := func(id topology.NodeID, on bool, now float64) {
				if wasOn[id] {
					onTime += now - last[id]
				}
				wasOn[id] = on
				last[id] = now
			}
			// Hooks fire only once Run starts, after s is bound.
			var s *Session
			spec.OnLogin = func(id topology.NodeID) { track(id, true, s.Now()) }
			spec.OnLogoff = func(id topology.NodeID, now float64) { track(id, false, now) }
			s, err := New(spec, rng.New(99))
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			for i := 0; i < nodes; i++ {
				if wasOn[i] {
					onTime += horizon - last[i]
				}
				if wasOn[i] != s.IsOnline(topology.NodeID(i)) {
					t.Fatalf("node %d hook state diverged from session mask", i)
				}
			}
			want := churn.StationaryOnlineProbability()
			got := onTime / (nodes * horizon)
			if math.Abs(got-want) > 0.02 {
				t.Fatalf("online fraction %v, want ~%v", got, want)
			}
			if s.Logins() == 0 || s.Logoffs() == 0 {
				t.Fatalf("no transitions counted: %d/%d", s.Logins(), s.Logoffs())
			}
		})
	}
}

// TestPoissonMatchesScheduleQueries pins the wrapper's draw-for-draw
// equivalence with the historical inline arrival loops: same stream,
// same fire times.
func TestPoissonMatchesScheduleQueries(t *testing.T) {
	const horizon = 50 * 3600.0
	runA := func() []float64 {
		e := sim.New()
		e.SetHorizon(horizon)
		var fires []float64
		resume := Poisson{RatePerHour: 4}.Schedule(e, rng.New(42),
			func() bool { return true },
			func(now float64) { fires = append(fires, now) })
		resume()
		e.RunUntil(horizon)
		return fires
	}
	e := sim.New()
	e.SetHorizon(horizon)
	var fires []float64
	resume := workload.ScheduleQueries(e, rng.New(42), workload.QueryConfig{RatePerHour: 4},
		func() bool { return true },
		func(now float64) { fires = append(fires, now) })
	resume()
	e.RunUntil(horizon)

	got := runA()
	if len(got) != len(fires) {
		t.Fatalf("fire counts diverged: %d vs %d", len(got), len(fires))
	}
	for i := range got {
		if got[i] != fires[i] {
			t.Fatalf("fire %d diverged: %v vs %v", i, got[i], fires[i])
		}
	}
}

// TestFlashCrowdRampsRate checks the thinning sampler: the in-window
// arrival rate must be about Peak times the off-window rate, and the
// process must suspend/resume like every arrival process.
func TestFlashCrowdRampsRate(t *testing.T) {
	f := FlashCrowd{BaseRatePerHour: 10, Peak: 5, StartHour: 100, DurationHours: 100}
	const horizon = 300 * 3600.0
	e := sim.New()
	e.SetHorizon(horizon)
	var inWindow, outWindow int
	resume := f.Schedule(e, rng.New(7),
		func() bool { return true },
		func(now float64) {
			if f.InWindow(now) {
				inWindow++
			} else {
				outWindow++
			}
		})
	resume()
	e.RunUntil(horizon)

	// 100h in-window at 50/h vs 200h off-window at 10/h.
	ratio := float64(inWindow) / 100 / (float64(outWindow) / 200)
	if math.Abs(ratio-5) > 0.5 {
		t.Fatalf("in/out rate ratio %v, want ~5 (in %d, out %d)", ratio, inWindow, outWindow)
	}
}

// TestSessionTimeline drives a small full session: placement, queries,
// churn bookkeeping, trace emission, search dispatch.
func TestSessionTimeline(t *testing.T) {
	const nodes = 50
	var queried int
	buf := &trace.Buffer{}
	spec := baseSpec(nodes)
	spec.Duration = 20 * 3600
	spec.Place = RandomWire(4)
	spec.Arrivals = Poisson{RatePerHour: 2}
	spec.Churn = &workload.ChurnConfig{MeanOnline: 3600, MeanOffline: 3600}
	spec.Content = allContent
	spec.TTL = 2
	spec.Trace = buf
	var s *Session
	spec.OnQuery = func(id topology.NodeID, now float64) {
		queried++
		out := s.Do(search.Query{ID: s.NextQueryID(), Key: 1, Origin: id})
		if out.Messages == 0 {
			// With everyone holding everything, a wired online node
			// must reach someone — unless its neighbors are offline.
			for _, nb := range s.Network().Out(id) {
				if s.IsOnline(nb) {
					t.Fatalf("query from %d with online neighbor %d sent no messages", id, nb)
				}
			}
		}
	}
	s, err := New(spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if queried == 0 {
		t.Fatal("no queries fired")
	}
	if s.Logins() == 0 || s.Logoffs() == 0 {
		t.Fatal("no churn bookkeeping")
	}
	logins := 0
	for _, ev := range buf.Events() {
		if ev.Kind == trace.KindLogin {
			logins++
		}
	}
	if uint64(logins) != s.Logins() {
		t.Fatalf("trace has %d logins, session counted %d", logins, s.Logins())
	}
	if s.Network().Freeze().EdgeCount() == 0 {
		t.Fatal("placement wired nothing")
	}
}

// TestSessionWithoutChurnStartsArmed checks the no-churn path: every
// node is online from t=0 and arrival processes run immediately.
func TestSessionWithoutChurnStartsArmed(t *testing.T) {
	spec := baseSpec(20)
	spec.Arrivals = Poisson{RatePerHour: 6}
	fired := make(map[topology.NodeID]bool)
	spec.OnQuery = func(id topology.NodeID, _ float64) { fired[id] = true }
	s, err := New(spec, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for id := topology.NodeID(0); id < 20; id++ {
		if !s.IsOnline(id) {
			t.Fatalf("node %d offline before run", id)
		}
	}
	s.Run()
	if len(fired) < 18 {
		t.Fatalf("only %d/20 nodes fired in an hour at 6/h", len(fired))
	}
	if s.Logins() != 0 || s.Logoffs() != 0 {
		t.Fatal("no-churn session counted transitions")
	}
}

// TestQueryStreamSharedWithArrivals documents the contract that the
// application samples query content from the same per-node stream the
// arrival process draws from.
func TestQueryStreamSharedWithArrivals(t *testing.T) {
	spec := baseSpec(4)
	spec.Arrivals = Poisson{RatePerHour: 1}
	spec.OnQuery = func(topology.NodeID, float64) {}
	s, err := New(spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.QueryStream(0) == s.QueryStream(1) {
		t.Fatal("nodes share a query stream")
	}
	if s.QueryStream(2) == nil || s.TopoStream() == nil || s.DelayStream() == nil {
		t.Fatal("missing streams")
	}
}
