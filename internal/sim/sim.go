// Package sim provides the discrete-event simulation engine on which
// every experiment in this repository runs.
//
// An Engine is a clock plus a timeline of pending handlers, held by
// value in an eventq.Monotone — the queue a cascade's frontier runs on.
// Handlers fire in non-decreasing time order with FIFO tie-breaking,
// each observing Now() equal to its scheduled time. There is no
// cancellation: a scheduled event fires unless the horizon dropped it
// when it was scheduled, and a Ticker runs until the horizon cuts it
// off.
//
// The engine is deliberately single-threaded: the paper's experiments
// need bit-for-bit reproducibility across runs and machines, and the
// per-event work (a query cascade over at most a few hundred nodes) is
// far too small to amortize cross-goroutine handoff. Parallelism in
// this repository lives one level up — independent experiment
// configurations run concurrently in the benchmark harness — and in the
// internal/live runtime, which executes the same framework code on real
// goroutines.
//
// Time is a float64 number of simulated seconds.
package sim

import (
	"fmt"
	"math"

	"repro/internal/eventq"
)

// Handler is the callback type invoked when an event fires.
type Handler func(e *Engine)

// Engine is a discrete-event simulator clock plus pending-event set.
type Engine struct {
	queue     *eventq.Monotone[Handler]
	now       float64
	processed uint64
	horizon   float64 // events scheduled after this time are dropped; +Inf = none
}

// New returns an engine with the clock at 0 and no horizon.
func New() *Engine {
	return &Engine{queue: eventq.NewMonotone[Handler](0), horizon: math.Inf(1)}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled but not yet fired events.
func (e *Engine) Pending() int { return e.queue.Len() }

// SetHorizon discards any event scheduled strictly after t. Existing
// pending events are not affected; the horizon applies to future At/In
// calls. Use it to avoid filling the queue with events beyond the
// simulation end.
func (e *Engine) SetHorizon(t float64) { e.horizon = t }

// At schedules h at absolute time t. Scheduling in the past (t < Now)
// panics: it is always a model bug and silently reordering the past
// would corrupt causality. Events beyond the horizon are dropped.
func (e *Engine) At(t float64, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at t=%v before now=%v", t, e.now))
	}
	if h == nil {
		panic("sim: nil handler")
	}
	if t > e.horizon {
		return
	}
	e.queue.Push(t, h)
}

// In schedules h after a relative delay d >= 0.
func (e *Engine) In(d float64, h Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, h)
}

// Step fires the single earliest event. It reports whether an event was
// available.
func (e *Engine) Step() bool {
	t, h, ok := e.queue.Pop()
	if !ok {
		return false
	}
	e.now = t
	e.processed++
	h(e)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
// Events scheduled after t stay pending.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now=%v", t, e.now))
	}
	for {
		next, ok := e.queue.PeekTime()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Ticker invokes h every period seconds starting at start, until the
// horizon cuts it off. Without a horizon it never stops, so Run does
// not return; RunUntil bounds it.
func (e *Engine) Ticker(start, period float64, h Handler) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	var tick Handler
	tick = func(en *Engine) {
		h(en)
		en.In(period, tick)
	}
	e.At(start, tick)
}
