package sim

import (
	"testing"

	"repro/internal/eventq"
)

// orderHarness drives an Engine with one fuzz-drawn schedule and
// replays every push the engine should accept into an eventq.Queue,
// the reference (time, seq) order. Each handler that fires must be the
// reference's next pop, at its scheduled time.
type orderHarness struct {
	t    *testing.T
	data []byte
	e    *Engine
	ref  *eventq.Queue

	pending []float64 // times the reference holds, for the RunUntil check
	horizon float64   // mirrors the engine's horizon
	clock   float64   // the engine's clock as last seen
	nextID  int
	tickers int
	fired   uint64
}

// delayUnits maps the two high bits of a magnitude byte to a delay
// unit. A zero unit schedules at the current time, and the small
// binary-exact units make distinct schedules land on equal times, so
// FIFO tie-breaking is exercised everywhere.
var delayUnits = [4]float64{0, 0.125, 1, 4}

func delay(mag byte) float64 { return float64(mag&0x3f) * delayUnits[mag>>6] }

// read reads the next input byte; ok is false once the input is spent.
func (h *orderHarness) read() (b byte, ok bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	b, h.data = h.data[0], h.data[1:]
	return b, true
}

// expect records a push the engine should have accepted at t, unless
// the horizon drops it.
func (h *orderHarness) expect(t float64, id int) {
	if t > h.horizon {
		return
	}
	h.ref.Push(t, id)
	h.pending = append(h.pending, t)
}

// schedule asks the engine for one event a drawn delay from now, by At,
// by In, or (op 2) at exactly the current time.
func (h *orderHarness) schedule(op, mag byte) {
	now, d, id := h.e.Now(), delay(mag), h.nextID
	h.nextID++
	switch op % 3 {
	case 0:
		h.e.At(now+d, h.handler(id))
	case 1:
		h.e.In(d, h.handler(id))
	default:
		d = 0
		h.e.At(now, h.handler(id))
	}
	h.expect(now+d, id)
}

// handler is event id's callback: check the pop, then schedule the
// follow-ups the input draws.
func (h *orderHarness) handler(id int) Handler {
	return func(e *Engine) {
		it := h.ref.Pop()
		if it == nil {
			h.t.Fatalf("engine fired %d at %v; the reference holds nothing", id, e.Now())
		}
		if it.Value.(int) != id || it.Time != e.Now() {
			h.t.Fatalf("engine fired %d at %v; the reference pops %d at %v", id, e.Now(), it.Value, it.Time)
		}
		if e.Now() < h.clock {
			h.t.Fatalf("clock ran back from %v to %v", h.clock, e.Now())
		}
		h.clock = e.Now()
		for i, p := range h.pending {
			if p == it.Time {
				h.pending[i] = h.pending[len(h.pending)-1]
				h.pending = h.pending[:len(h.pending)-1]
				break
			}
		}
		h.fired++
		n, _ := h.read()
		for range n % 4 {
			op, ok1 := h.read()
			mag, ok2 := h.read()
			if !ok1 || !ok2 {
				return
			}
			h.schedule(op, mag)
		}
	}
}

// ticker starts a Ticker whose h is a harness handler. The engine
// re-arms a tick after h returns, so the reference does the same.
func (h *orderHarness) ticker(op, mag byte) {
	if h.tickers == 3 {
		return
	}
	h.tickers++
	start, period, id := h.e.Now()+delay(mag), float64(1+(op>>3)%8), h.nextID
	h.nextID++
	fire := h.handler(id)
	h.e.Ticker(start, period, func(e *Engine) {
		fire(e)
		h.expect(e.Now()+period, id)
	})
	h.expect(start, id)
}

// checkPending requires the engine to hold exactly what the reference
// does.
func (h *orderHarness) checkPending(where string) {
	if got := h.e.Pending(); got != len(h.pending) {
		h.t.Fatalf("%s: engine holds %d events, the reference %d", where, got, len(h.pending))
	}
}

// FuzzEngineOrder draws a random schedule — At and In calls, handlers
// that schedule follow-ups, ties at equal times, horizon drops, Tickers
// and RunUntil cut points — and requires the engine to fire handlers in
// exactly the order an eventq.Queue replay of the same pushes pops
// them, each with Now() equal to its scheduled time.
//
// Input grammar: the first byte sets the initial horizon; then two
// bytes per top-level operation, an op byte (low three bits select it)
// and a delay magnitude (see delay). Ops 0-2 schedule (At, In, At now),
// 3 starts a Ticker (period from op bits 3-5), 4 moves the horizon to
// now plus the delay, 5 runs until now plus the delay, 6 steps once and
// 7 schedules by At. Every firing handler reads one byte n and
// schedules n%4 follow-ups, two bytes each. The horizon is always
// finite, so Tickers end and the final Run drains.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	// Three ties at t=0, then a drain.
	f.Add([]byte{10, 2, 0x00, 0, 0x00, 1, 0x00, 0, 0x01, 1, 0x00})
	// Two tickers of different periods, cut by RunUntil, with
	// follow-ups from every tick.
	f.Add([]byte{40, 3, 0x41, 0x0b, 0x42, 5, 0x4a, 1, 1, 0x43, 2, 0x00, 5, 0x90, 0x02, 0x05, 1, 0x81})
	// A horizon that drops later pushes, then steps.
	f.Add([]byte{8, 0, 0x85, 4, 0x42, 0, 0x45, 1, 0x9f, 6, 0, 6, 0, 6, 0})
	// Nested follow-ups: every handler schedules three more.
	f.Add([]byte{64, 0, 0x41, 3, 0, 0x42, 1, 0x41, 2, 0, 3, 1, 0x00, 0, 0x81, 2, 0, 3, 0, 0x01, 1, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip("needs a horizon byte; bounded for speed")
		}
		h := &orderHarness{t: t, data: data[1:], e: New(), ref: eventq.New(),
			horizon: float64(data[0])}
		h.e.SetHorizon(h.horizon)
		for {
			op, ok1 := h.read()
			mag, ok2 := h.read()
			if !ok1 || !ok2 {
				break
			}
			switch op % 8 {
			case 0, 1, 2:
				h.schedule(op%8, mag)
			case 3:
				h.ticker(op, mag)
			case 4:
				h.horizon = h.e.Now() + delay(mag)
				h.e.SetHorizon(h.horizon)
			case 5:
				cut := h.e.Now() + delay(mag)
				h.e.RunUntil(cut)
				if h.e.Now() != cut {
					t.Fatalf("RunUntil(%v) left the clock at %v", cut, h.e.Now())
				}
				h.clock = cut
				for _, p := range h.pending {
					if p <= cut {
						t.Fatalf("RunUntil(%v) left an event at %v pending", cut, p)
					}
				}
			case 6:
				want := len(h.pending) > 0
				if got := h.e.Step(); got != want {
					t.Fatalf("Step reported %v with %d events pending", got, len(h.pending))
				}
			case 7:
				h.schedule(0, mag)
			}
			h.checkPending("mid-run")
		}
		h.e.Run()
		h.checkPending("drained")
		if it := h.ref.Pop(); it != nil {
			t.Fatalf("engine drained; the reference still pops %v at %v", it.Value, it.Time)
		}
		if h.e.Processed() != h.fired {
			t.Fatalf("Processed = %d, handlers fired %d", h.e.Processed(), h.fired)
		}
	})
}
