package faults

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCrashScheduleByteIdentity(t *testing.T) {
	plan := CrashPlan{Nodes: 50, Crashes: 5, SpanMillis: 2000, MinDownMillis: 100, MaxDownMillis: 400}
	a, err := GenCrashSchedule(42, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenCrashSchedule(42, plan)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different schedules:\n%s\n%s", ja, jb)
	}
	c, err := GenCrashSchedule(43, plan)
	if err != nil {
		t.Fatal(err)
	}
	if jc, _ := json.Marshal(c); bytes.Equal(ja, jc) {
		t.Fatal("different seed reproduced the schedule bytes")
	}
}

func TestCrashScheduleShape(t *testing.T) {
	plan := CrashPlan{Nodes: 20, Crashes: 6, SpanMillis: 1000, MinDownMillis: 50, MaxDownMillis: 200}
	s, err := GenCrashSchedule(7, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2*plan.Crashes {
		t.Fatalf("got %d events, want %d", len(s.Events), 2*plan.Crashes)
	}
	crashAt := map[int]int64{}
	victims := map[int]bool{}
	for i, ev := range s.Events {
		if i > 0 && ev.AtMillis < s.Events[i-1].AtMillis {
			t.Fatalf("events out of order at %d", i)
		}
		switch ev.Kind {
		case EventCrash:
			if victims[ev.Node] {
				t.Fatalf("node %d crashed twice", ev.Node)
			}
			victims[ev.Node] = true
			if ev.AtMillis >= plan.SpanMillis {
				t.Fatalf("crash at %dms outside span", ev.AtMillis)
			}
			crashAt[ev.Node] = ev.AtMillis
		case EventRestart:
			at, ok := crashAt[ev.Node]
			if !ok {
				t.Fatalf("restart of %d without crash", ev.Node)
			}
			down := ev.AtMillis - at
			if down < plan.MinDownMillis || down > plan.MaxDownMillis {
				t.Fatalf("outage %dms outside [%d,%d]", down, plan.MinDownMillis, plan.MaxDownMillis)
			}
		default:
			t.Fatalf("unexpected kind %q", ev.Kind)
		}
	}
	if len(victims) != plan.Crashes {
		t.Fatalf("%d distinct victims, want %d", len(victims), plan.Crashes)
	}
}

func TestCrashScheduleRejectsBadPlans(t *testing.T) {
	bad := []CrashPlan{
		{Nodes: 3, Crashes: 4, SpanMillis: 100, MinDownMillis: 1, MaxDownMillis: 2},
		{Nodes: 10, Crashes: 1, SpanMillis: 0, MinDownMillis: 1, MaxDownMillis: 2},
		{Nodes: 10, Crashes: 1, SpanMillis: 100, MinDownMillis: 5, MaxDownMillis: 2},
	}
	for _, p := range bad {
		if _, err := GenCrashSchedule(1, p); err == nil {
			t.Errorf("GenCrashSchedule accepted %+v", p)
		}
	}
}

// recorder captures played events in order.
type recorder struct {
	mu  sync.Mutex
	log []string
	err error
}

func (r *recorder) add(s string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, s)
	return r.err
}
func (r *recorder) Crash(n int) error         { return r.add(fmt.Sprintf("crash:%d", n)) }
func (r *recorder) Restart(n int) error       { return r.add(fmt.Sprintf("restart:%d", n)) }
func (r *recorder) Partition(g [][]int) error { return r.add(fmt.Sprintf("partition:%v", g)) }
func (r *recorder) Heal() error               { return r.add("heal") }

func TestScheduleRunPlaysInOrder(t *testing.T) {
	s := Schedule{Events: []Event{
		{AtMillis: 0, Kind: EventCrash, Node: 1},
		{AtMillis: 5, Kind: EventPartition, Groups: [][]int{{1}, {2}}},
		{AtMillis: 10, Kind: EventHeal},
		{AtMillis: 15, Kind: EventRestart, Node: 1},
	}}
	r := &recorder{}
	if err := s.Run(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	want := []string{"crash:1", "partition:[[1] [2]]", "heal", "restart:1"}
	if len(r.log) != len(want) {
		t.Fatalf("played %v, want %v", r.log, want)
	}
	for i := range want {
		if r.log[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, r.log[i], want[i])
		}
	}
}

func TestScheduleRunStopsOnCancel(t *testing.T) {
	s := Schedule{Events: []Event{
		{AtMillis: 0, Kind: EventCrash, Node: 1},
		{AtMillis: 60_000, Kind: EventRestart, Node: 1},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	r := &recorder{}
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, r) }()
	for {
		r.mu.Lock()
		n := len(r.log)
		r.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestScheduleRunStopsOnTargetError(t *testing.T) {
	s := Schedule{Events: []Event{
		{AtMillis: 0, Kind: EventCrash, Node: 1},
		{AtMillis: 1, Kind: EventRestart, Node: 1},
	}}
	r := &recorder{err: fmt.Errorf("boom")}
	if err := s.Run(context.Background(), r); err == nil {
		t.Fatal("Run swallowed the target error")
	}
	if len(r.log) != 1 {
		t.Fatalf("played %d events after error, want 1", len(r.log))
	}
}
