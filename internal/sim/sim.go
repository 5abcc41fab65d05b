// Package sim provides the discrete-event simulation engine on which
// every experiment in this repository runs.
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
// Time is a float64 number of simulated seconds. The engine guarantees
// that events fire in non-decreasing time order with FIFO tie-breaking,
// and that handlers observe Now() equal to their scheduled time.
package sim

import (
	"fmt"
	"math"

	"repro/internal/eventq"
)

// Handler is the callback type invoked when an event fires.
type Handler func(e *Engine)

// Event is a cancellable handle to a scheduled handler.
type Event struct {
	item    *eventq.Item
	handler Handler
}

// Engine is a discrete-event simulator clock plus pending-event set.
type Engine struct {
	queue     *eventq.Queue
	now       float64
	processed uint64
	horizon   float64 // events past this time are silently dropped; 0 = none
}

// New returns an engine with the clock at 0 and no horizon.
func New() *Engine {
	return &Engine{queue: eventq.New(), horizon: math.Inf(1)}
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
// would corrupt causality. Events beyond the horizon return a nil
// handle and are dropped.
func (e *Engine) At(t float64, h Handler) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at t=%v before now=%v", t, e.now))
	}
	if h == nil {
		panic("sim: nil handler")
	}
	if t > e.horizon {
		return nil
	}
	ev := &Event{handler: h}
	ev.item = e.queue.Push(t, ev)
	return ev
}

// In schedules h after a relative delay d >= 0.
func (e *Engine) In(d float64, h Handler) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, h)
}

// Cancel removes a pending event; it reports whether the event was
// still pending. Cancelling a nil or already-fired event is a no-op.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil {
		return false
	}
	return e.queue.Cancel(ev.item)
}

// Step fires the single earliest event. It reports whether an event was
// available.
func (e *Engine) Step() bool {
	it := e.queue.Pop()
	if it == nil {
		return false
	}
	e.now = it.Time
	e.processed++
	it.Value.(*Event).handler(e)
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
		next := e.queue.Peek()
		if next == nil || next.Time > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Ticker invokes h every period seconds starting at start, until cancel
// is called or the horizon cuts it off. It returns a cancel function.
func (e *Engine) Ticker(start, period float64, h Handler) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	var ev *Event
	stopped := false
	var tick Handler
	tick = func(en *Engine) {
		if stopped {
			return
		}
		h(en)
		if !stopped {
			ev = en.In(period, tick)
		}
	}
	ev = e.At(start, tick)
	return func() {
		stopped = true
		e.Cancel(ev)
	}
}
