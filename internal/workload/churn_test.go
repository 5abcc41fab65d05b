package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func TestChurnDefaults(t *testing.T) {
	c := DefaultChurnConfig()
	if c.MeanOnline != 10800 || c.MeanOffline != 10800 {
		t.Fatalf("default churn config drifted: %+v", c)
	}
	if c.StationaryOnlineProbability() != 0.5 {
		t.Fatalf("stationary probability = %v", c.StationaryOnlineProbability())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnValidate(t *testing.T) {
	if err := (ChurnConfig{MeanOnline: 0, MeanOffline: 1}).Validate(); err == nil {
		t.Fatal("zero mean accepted")
	}
}

func TestScheduleChurnRejectsInvalidConfig(t *testing.T) {
	e := sim.New()
	s := rng.New(1)
	err := ScheduleChurn(e, s, ChurnConfig{MeanOnline: -1, MeanOffline: 1}, func(bool, float64) {
		t.Fatal("set invoked for invalid config")
	})
	if err == nil {
		t.Fatal("invalid churn config accepted")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events scheduled despite the error", e.Pending())
	}
}

func TestChurnStationaryFraction(t *testing.T) {
	// Simulate many users over a long horizon; the average on-line
	// fraction must match the stationary probability.
	e := sim.New()
	cfg := DefaultChurnConfig()
	const users = 400
	const horizon = 96 * 3600.0
	e.SetHorizon(horizon)
	online := make([]bool, users)
	var onTime float64
	last := make([]float64, users)
	root := rng.New(42)
	for i := 0; i < users; i++ {
		i := i
		err := ScheduleChurn(e, root.Split(), cfg, func(on bool, now float64) {
			if online[i] {
				onTime += now - last[i]
			}
			online[i] = on
			last[i] = now
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(horizon)
	for i := 0; i < users; i++ {
		if online[i] {
			onTime += horizon - last[i]
		}
	}
	frac := onTime / (users * horizon)
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("online fraction %v, want ~0.5", frac)
	}
}

func TestChurnAlternates(t *testing.T) {
	e := sim.New()
	e.SetHorizon(1e6)
	var states []bool
	if err := ScheduleChurn(e, rng.New(1), DefaultChurnConfig(), func(on bool, _ float64) {
		states = append(states, on)
	}); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(1e6)
	if len(states) < 10 {
		t.Fatalf("only %d transitions in 1e6s", len(states))
	}
	for i := 1; i < len(states); i++ {
		if states[i] == states[i-1] {
			t.Fatalf("non-alternating transition at %d", i)
		}
	}
}

func TestChurnBadConfigErrors(t *testing.T) {
	if err := ScheduleChurn(sim.New(), rng.New(1), ChurnConfig{}, func(bool, float64) {}); err == nil {
		t.Fatal("bad churn config accepted")
	}
}

func TestQueryConfigDefaults(t *testing.T) {
	c := DefaultQueryConfig()
	if c.RatePerHour != 12 {
		t.Fatalf("default rate drifted: %v", c.RatePerHour)
	}
	if c.MeanInterarrival() != 300 {
		t.Fatalf("mean interarrival = %v", c.MeanInterarrival())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (QueryConfig{RatePerHour: rate}).Validate(); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

func TestScheduleQueriesRate(t *testing.T) {
	e := sim.New()
	const horizon = 200 * 3600.0
	e.SetHorizon(horizon)
	fired := 0
	resume := ScheduleQueries(e, rng.New(2), DefaultQueryConfig(),
		func() bool { return true },
		func(float64) { fired++ })
	resume()
	e.RunUntil(horizon)
	want := 12.0 * 200
	if math.Abs(float64(fired)-want) > want*0.1 {
		t.Fatalf("fired %d queries, want ~%v", fired, want)
	}
}

func TestScheduleQueriesSuspendsOffline(t *testing.T) {
	e := sim.New()
	e.SetHorizon(100 * 3600)
	online := true
	fired := 0
	resume := ScheduleQueries(e, rng.New(3), DefaultQueryConfig(),
		func() bool { return online },
		func(float64) { fired++ })
	resume()
	e.RunUntil(10 * 3600)
	firedWhileOnline := fired
	if firedWhileOnline == 0 {
		t.Fatal("no queries while online")
	}
	online = false
	e.RunUntil(50 * 3600)
	if fired > firedWhileOnline+1 {
		t.Fatalf("queries fired while offline: %d -> %d", firedWhileOnline, fired)
	}
	// Resume after re-login.
	online = true
	resume()
	e.RunUntil(100 * 3600)
	if fired <= firedWhileOnline+1 {
		t.Fatal("queries did not resume after re-login")
	}
}

func TestScheduleQueriesResumeIdempotent(t *testing.T) {
	e := sim.New()
	e.SetHorizon(100 * 3600)
	fired := 0
	resume := ScheduleQueries(e, rng.New(4), DefaultQueryConfig(),
		func() bool { return true },
		func(float64) { fired++ })
	resume()
	resume() // double resume must not double the process
	resume()
	e.RunUntil(100 * 3600)
	want := 12.0 * 100
	if float64(fired) > want*1.2 {
		t.Fatalf("fired %d, want ~%v (double-armed?)", fired, want)
	}
}

func TestScheduleQueriesResumeWhileOfflineIsNoop(t *testing.T) {
	e := sim.New()
	e.SetHorizon(10 * 3600)
	fired := 0
	resume := ScheduleQueries(e, rng.New(5), DefaultQueryConfig(),
		func() bool { return false },
		func(float64) { fired++ })
	resume()
	e.RunUntil(10 * 3600)
	if fired != 0 {
		t.Fatalf("offline user fired %d queries", fired)
	}
}
