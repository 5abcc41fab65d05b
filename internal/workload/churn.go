package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// ChurnConfig models Section 4.2's session behavior: "each user will
// stay on-line for a period of time, which is exponentially distributed
// with mean 3 hours, and then go off-line for a period of time, which
// is also exponentially distributed with the same mean".
type ChurnConfig struct {
	// MeanOnline is the mean on-line session duration in seconds.
	MeanOnline float64
	// MeanOffline is the mean off-line period in seconds.
	MeanOffline float64
}

// DefaultChurnConfig returns the paper's 3h/3h setting.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{MeanOnline: 3 * 3600, MeanOffline: 3 * 3600}
}

// Validate reports configuration errors.
func (c ChurnConfig) Validate() error {
	if c.MeanOnline <= 0 || c.MeanOffline <= 0 {
		return fmt.Errorf("workload: non-positive churn means %+v", c)
	}
	return nil
}

// StationaryOnlineProbability returns the long-run fraction of time a
// user is on-line (0.5 for the paper's symmetric means, giving "on
// average 1,000 users simultaneously on-line").
func (c ChurnConfig) StationaryOnlineProbability() float64 {
	return c.MeanOnline / (c.MeanOnline + c.MeanOffline)
}

// ScheduleChurn drives one user's on/off transitions on the engine.
// The user starts in the stationary distribution (online with
// probability MeanOnline/(MeanOnline+MeanOffline)); thanks to the
// memorylessness of the exponential, the remaining session time is a
// fresh draw. set is invoked immediately for the initial state (at the
// engine's current time) and on every subsequent transition.
//
// An invalid cfg returns its validation error before anything is
// scheduled or drawn from s; the engine and stream are untouched.
func ScheduleChurn(e *sim.Engine, s *rng.Stream, cfg ChurnConfig, set func(online bool, now float64)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	online := s.Bernoulli(cfg.StationaryOnlineProbability())
	set(online, e.Now())
	var flip func(en *sim.Engine)
	state := online
	flip = func(en *sim.Engine) {
		state = !state
		set(state, en.Now())
		mean := cfg.MeanOffline
		if state {
			mean = cfg.MeanOnline
		}
		en.In(s.Exp(mean), flip)
	}
	mean := cfg.MeanOffline
	if online {
		mean = cfg.MeanOnline
	}
	e.In(s.Exp(mean), flip)
	return nil
}

// QueryConfig models query issuing: "when on-line, each user will issue
// queries with the same frequency". The paper omits the rate; DESIGN.md
// derives 12 queries/hour from the reported message volumes.
type QueryConfig struct {
	// RatePerHour is each on-line user's Poisson query rate.
	RatePerHour float64
}

// DefaultQueryConfig returns the derived 12 queries/hour.
func DefaultQueryConfig() QueryConfig { return QueryConfig{RatePerHour: 12} }

// Validate reports configuration errors. The rate must be a finite
// positive number: NaN and +Inf would reach the exponential sampler as
// an interarrival mean of NaN or 0.
func (c QueryConfig) Validate() error {
	if r := c.RatePerHour; !(r > 0) || math.IsInf(r, 1) {
		return fmt.Errorf("workload: query rate %v is not a finite positive number", r)
	}
	return nil
}

// MeanInterarrival returns the mean seconds between queries.
func (c QueryConfig) MeanInterarrival() float64 { return 3600 / c.RatePerHour }

// ScheduleQueries drives one user's Poisson query process: fire is
// invoked at each query instant while online() holds. The process
// self-suspends while the user is off-line and is re-armed by the next
// call to Resume (returned function), which the churn callback invokes
// on re-login.
func ScheduleQueries(e *sim.Engine, s *rng.Stream, cfg QueryConfig, online func() bool, fire func(now float64)) (resume func()) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	mean := cfg.MeanInterarrival()
	var tick func(en *sim.Engine)
	armed := false
	tick = func(en *sim.Engine) {
		if !online() {
			armed = false // suspend; Resume re-arms on next login
			return
		}
		fire(en.Now())
		en.In(s.Exp(mean), tick)
	}
	resume = func() {
		if armed || !online() {
			return
		}
		armed = true
		e.In(s.Exp(mean), tick)
	}
	return resume
}
