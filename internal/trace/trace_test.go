package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestBufferRecordsInOrder(t *testing.T) {
	var b Buffer
	b.Record(Event{T: 1, Kind: KindQuery, Node: 1})
	b.Record(Event{T: 2, Kind: KindHit, Node: 1, Peer: 2})
	ev := b.Events()
	if len(ev) != 2 {
		t.Fatalf("%d events, want 2", len(ev))
	}
	if ev[0].Kind != KindQuery || ev[1].Kind != KindHit {
		t.Fatalf("events: %v", ev)
	}
}

func TestBufferEventsIsSnapshot(t *testing.T) {
	var b Buffer
	b.Record(Event{Kind: KindQuery})
	ev := b.Events()
	ev[0].Kind = KindEvict
	if b.Events()[0].Kind != KindQuery {
		t.Fatal("Events aliases the buffer")
	}
}

func TestDiscard(t *testing.T) {
	Discard.Record(Event{Kind: KindQuery}) // must not panic
}

func TestJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	want := []Event{
		{T: 1.5, Kind: KindQuery, Node: 3, Key: 42, N: 16},
		{T: 2.25, Kind: KindHit, Node: 3, Peer: 7, Key: 42, N: 2},
		{T: 3, Kind: KindLogoff, Node: 9},
	}
	for _, e := range want {
		j.Record(e)
	}
	if j.Written() != 3 || j.Err() != nil {
		t.Fatalf("written=%d err=%v", j.Written(), j.Err())
	}
	got, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLOneObjectPerLine(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.Record(Event{Kind: KindQuery})
	j.Record(Event{Kind: KindHit})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %q", sb.String())
	}
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Record(Event{Kind: KindQuery})
	j.Record(Event{Kind: KindQuery})
	if j.Err() == nil {
		t.Fatal("error not surfaced")
	}
	if j.Written() != 0 {
		t.Fatalf("written = %d after failures", j.Written())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, errors.New("write refused")
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad input accepted")
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 1.5, Kind: KindHit, Node: 2, Peer: 3, Key: 9, N: 4}
	s := e.String()
	for _, want := range []string{"hit", "node=2", "peer=3", "key=9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestQuickJSONLRoundTrip(t *testing.T) {
	f := func(ts []float64, nodes []int32) bool {
		var sb strings.Builder
		j := NewJSONL(&sb)
		n := len(ts)
		if len(nodes) < n {
			n = len(nodes)
		}
		var want []Event
		for i := 0; i < n; i++ {
			if math.IsNaN(ts[i]) || math.IsInf(ts[i], 0) {
				continue // JSON cannot carry non-finite floats
			}
			e := Event{T: ts[i], Kind: KindQuery, Node: topology.NodeID(nodes[i])}
			want = append(want, e)
			j.Record(e)
		}
		got, err := ReadJSONL(strings.NewReader(sb.String()))
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
