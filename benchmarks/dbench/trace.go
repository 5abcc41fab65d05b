package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one pass
// (a loop of such calls) around them.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 is the run itself
	Name   string `json:"name"`
	// Req identifies the request the call served (its plan index), so
	// the spans one query produced on different rungs can be joined;
	// -1 on pass spans.
	Req   int64 `json:"req"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// from the benchmark's side of each call; spans inside the program are
// a later change.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17)}
}

// open starts a pass span; close ends it.
func (t *tracer) open(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Req: -1, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) close(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// record adds one finished call span.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// call times f as one span under parent.
func (t *tracer) call(name string, parent int32, req int64, f func()) {
	start := time.Now()
	f()
	t.record(name, parent, req, start, time.Now())
}

// durations returns the duration in ns of every span called name, in
// recording order.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].End-t.spans[i].Start)
		}
	}
	return out
}

// selfTime returns span id's duration minus what its children cover:
// the time the pass spent in the benchmark's own loop rather than in
// the layer it was calling.
func (t *tracer) selfTime(id int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[id-1].End - t.spans[id-1].Start
	for i := range t.spans {
		if t.spans[i].Parent == id {
			self -= t.spans[i].End - t.spans[i].Start
		}
	}
	return time.Duration(self)
}

// write dumps every span and the environment stamp to path.
func (t *tracer) write(path string, env envStamp, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Env      envStamp `json:"env"`
		Spans    []span   `json:"spans"`
	}{workload, seed, env, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
