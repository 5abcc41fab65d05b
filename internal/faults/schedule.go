package faults

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/runner"
)

// EventKind names one scripted fault action.
type EventKind string

// The scripted fault actions a Schedule can carry.
const (
	EventCrash     EventKind = "crash"
	EventRestart   EventKind = "restart"
	EventPartition EventKind = "partition"
	EventHeal      EventKind = "heal"
)

// Event is one scripted fault: at AtMillis after playback start, do
// Kind to Node (crash/restart) or Groups (partition).
type Event struct {
	AtMillis int64     `json:"at_ms"`
	Kind     EventKind `json:"kind"`
	Node     int       `json:"node,omitempty"`
	Groups   [][]int   `json:"groups,omitempty"`
}

// Schedule is an ordered fault script. It is a value object: generate
// it from a seed, marshal it, diff it, play it back.
type Schedule struct {
	Seed   uint64  `json:"seed"`
	Events []Event `json:"events"`
}

// Target is the surface a schedule plays against: the in-process
// fault Transport, a daemon.Server, or an HTTP shim over a real
// dsearchd process.
type Target interface {
	Crash(node int) error
	Restart(node int) error
	Partition(groups [][]int) error
	Heal() error
}

// Run plays the schedule against target in wall-clock time, sleeping
// between events and stopping early when ctx is done. It returns the
// first target error (playback stops there — a half-applied script is
// a test bug worth failing loudly on).
func (s Schedule) Run(ctx context.Context, target Target) error {
	start := time.Now()
	for _, ev := range s.Events {
		due := start.Add(time.Duration(ev.AtMillis) * time.Millisecond)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		switch ev.Kind {
		case EventCrash:
			err = target.Crash(ev.Node)
		case EventRestart:
			err = target.Restart(ev.Node)
		case EventPartition:
			err = target.Partition(ev.Groups)
		case EventHeal:
			err = target.Heal()
		default:
			err = fmt.Errorf("faults: unknown event kind %q", ev.Kind)
		}
		if err != nil {
			return fmt.Errorf("faults: event %s at %dms: %w", ev.Kind, ev.AtMillis, err)
		}
	}
	return nil
}

// CrashPlan parameterizes GenCrashSchedule.
type CrashPlan struct {
	// Nodes is the population crashes are drawn from (IDs 0..Nodes-1).
	Nodes int
	// Crashes is how many crash/restart pairs to script.
	Crashes int
	// SpanMillis is the window crash times are drawn from.
	SpanMillis int64
	// MinDownMillis/MaxDownMillis bound each outage's length.
	MinDownMillis, MaxDownMillis int64
}

// GenCrashSchedule scripts plan.Crashes crash/restart pairs over
// distinct nodes, deterministically from seed. Crash instants are
// uniform over the span, outage lengths uniform over
// [MinDown, MaxDown], and events come out sorted by time (ties broken
// crash-before-restart, then by node) so the byte layout is canonical.
// The same (seed, plan) always yields the same bytes.
func GenCrashSchedule(seed uint64, plan CrashPlan) (Schedule, error) {
	if plan.Crashes > plan.Nodes {
		return Schedule{}, fmt.Errorf("faults: %d crashes over %d nodes", plan.Crashes, plan.Nodes)
	}
	if plan.SpanMillis <= 0 || plan.MinDownMillis <= 0 || plan.MaxDownMillis < plan.MinDownMillis {
		return Schedule{}, fmt.Errorf("faults: invalid crash plan %+v", plan)
	}
	derived := runner.DeriveSeed(seed, "faults", "crash-schedule")
	st := rng.New(derived)
	// Distinct victims via a partial Fisher-Yates over the id space.
	ids := make([]int, plan.Nodes)
	for i := range ids {
		ids[i] = i
	}
	events := make([]Event, 0, 2*plan.Crashes)
	for c := 0; c < plan.Crashes; c++ {
		j := c + st.Intn(plan.Nodes-c)
		ids[c], ids[j] = ids[j], ids[c]
		at := int64(st.Intn(int(plan.SpanMillis)))
		down := plan.MinDownMillis + int64(st.Intn(int(plan.MaxDownMillis-plan.MinDownMillis+1)))
		events = append(events,
			Event{AtMillis: at, Kind: EventCrash, Node: ids[c]},
			Event{AtMillis: at + down, Kind: EventRestart, Node: ids[c]},
		)
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].AtMillis != events[j].AtMillis {
			return events[i].AtMillis < events[j].AtMillis
		}
		if events[i].Kind != events[j].Kind {
			return events[i].Kind == EventCrash
		}
		return events[i].Node < events[j].Node
	})
	return Schedule{Seed: derived, Events: events}, nil
}
