// Package trace provides structured event tracing for the simulation
// case studies: every protocol-level occurrence (query, hit,
// reconfiguration, invitation, eviction, login, logoff) can be streamed
// to a sink for debugging, visualization or offline analysis. Sinks are
// optional and cost nothing when unset; the JSONL sink emits one JSON
// object per line so runs can be grepped, diffed and replayed with
// standard tools.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/topology"
)

// Kind classifies events.
type Kind string

// The protocol-level event kinds.
const (
	KindQuery    Kind = "query"    // a node issued a search
	KindHit      Kind = "hit"      // a search was satisfied
	KindReconfig Kind = "reconfig" // a node changed its neighborhood
	KindInvite   Kind = "invite"   // an invitation was sent
	KindEvict    Kind = "evict"    // an eviction was sent
	KindLogin    Kind = "login"    // a node came on-line
	KindLogoff   Kind = "logoff"   // a node went off-line
)

// Event is one traced occurrence. Fields that do not apply to a kind
// stay at their zero values and are omitted from JSON.
type Event struct {
	// T is the simulated time in seconds.
	T float64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the acting repository.
	Node topology.NodeID `json:"node"`
	// Peer is the counterparty (invitee, evictee, result holder...).
	Peer topology.NodeID `json:"peer,omitempty"`
	// Key is the content item involved, if any.
	Key uint64 `json:"key,omitempty"`
	// N carries a count (results obtained, messages sent...).
	N int `json:"n,omitempty"`
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%.3fs %s node=%d peer=%d key=%d n=%d", e.T, e.Kind, e.Node, e.Peer, e.Key, e.N)
}

// Sink consumes events. Implementations must tolerate concurrent calls
// only if the producing runtime is concurrent (the simulator is
// single-threaded; the live runtime is not).
type Sink interface {
	Record(Event)
}

// Discard is a Sink that drops everything.
var Discard Sink = discard{}

type discard struct{}

// Record implements Sink.
func (discard) Record(Event) {}

// Buffer is an in-memory Sink for tests and small runs.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// Record implements Sink.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Events returns a snapshot of all recorded events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// JSONL streams events as JSON lines to a writer.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   uint64
	err error
}

// NewJSONL wraps w. Encoding errors are sticky and reported by Err;
// tracing must never abort a simulation.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Record implements Sink.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(e); err != nil {
		j.err = err
		return
	}
	j.n++
}

// Written returns the number of events successfully encoded.
func (j *JSONL) Written() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the first encoding error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJSONL decodes a JSONL stream back into events (replay/analysis).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("trace: decode event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
