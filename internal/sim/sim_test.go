package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("new engine at t=%v", e.Now())
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(3, func(*Engine) { order = append(order, 3) })
	e.At(1, func(*Engine) { order = append(order, 1) })
	e.At(2, func(*Engine) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v", order)
	}
}

func TestNowMatchesScheduledTime(t *testing.T) {
	e := New()
	e.At(5, func(en *Engine) {
		if en.Now() != 5 {
			t.Fatalf("handler saw Now=%v, want 5", en.Now())
		}
	})
	e.Run()
	if e.Now() != 5 {
		t.Fatalf("after run Now=%v", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(1, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestInSchedulesRelative(t *testing.T) {
	e := New()
	var at float64
	e.At(10, func(en *Engine) {
		en.In(5, func(en2 *Engine) { at = en2.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("relative event fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling in the past did not panic")
			}
		}()
		en.At(5, func(*Engine) {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().In(-1, func(*Engine) {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().At(1, nil)
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, func(*Engine) { fired = append(fired, tm) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %v", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("RunUntil left Now=%v", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("second RunUntil fired %v", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now=%v, want 10", e.Now())
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	e := New()
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil in the past did not panic")
		}
	}()
	e.RunUntil(1)
}

func TestHorizonDropsLateEvents(t *testing.T) {
	e := New()
	e.SetHorizon(10)
	fired := 0
	e.At(11, func(*Engine) { fired++ })
	if e.Pending() != 0 {
		t.Fatal("event past the horizon was queued")
	}
	e.At(9, func(*Engine) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
}

func TestTicker(t *testing.T) {
	e := New()
	e.SetHorizon(10)
	var times []float64
	e.Ticker(1, 2, func(en *Engine) { times = append(times, en.Now()) })
	e.Run()
	want := []float64{1, 3, 5, 7, 9}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", times, want)
		}
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period did not panic")
		}
	}()
	New().Ticker(0, 0, func(*Engine) {})
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(float64(i), func(*Engine) {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed=%d, want 7", e.Processed())
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.At(1, func(*Engine) {})
	e.At(2, func(*Engine) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending=%d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending=%d, want 1", e.Pending())
	}
}

func TestQuickMonotoneClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		prev := -1.0
		ok := true
		for _, d := range delays {
			e.At(float64(d), func(en *Engine) {
				if en.Now() < prev {
					ok = false
				}
				prev = en.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	var h Handler
	h = func(en *Engine) {
		if en.Processed() < uint64(b.N) {
			en.In(1, h)
		}
	}
	e.At(0, h)
	b.ResetTimer()
	e.Run()
}
