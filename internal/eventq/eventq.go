// Package eventq implements the repository's timed priority queue,
// Monotone, and the reference order it is held to.
//
// Every event stream in the repository — a cascade's arrival frontier
// (core.Scratch) and the simulator's timeline (internal/sim) — runs on
// Monotone. Both pop in one total order on (time, sequence): ties in
// simulated time break by insertion order, so a run is fully
// deterministic regardless of map iteration or scheduling artifacts.
//
// Queue is the plain binary min-heap on that order, kept only as the
// reference: the differential tests pop a Monotone and a Queue fed the
// same pushes and require the same sequence.
package eventq

// Item is a scheduled entry of a Queue.
type Item struct {
	Time  float64 // simulated seconds
	Value any     // payload
	seq   uint64  // tiebreaker: insertion order
}

// Queue is the reference (time, seq) priority queue: a binary min-heap
// of pointers. It is not safe for concurrent use.
type Queue struct {
	heap []*Item
	seq  uint64
}

// New returns an empty queue.
func New() *Queue { return &Queue{} }

// Push schedules value at time t.
func (q *Queue) Push(t float64, value any) {
	q.heap = append(q.heap, &Item{Time: t, Value: value, seq: q.seq})
	q.seq++
	for i := len(q.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// Pop removes and returns the earliest item, or nil when empty.
func (q *Queue) Pop() *Item {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	for i, n := 0, last; ; {
		smallest := 2*i + 1
		if smallest >= n {
			break
		}
		if right := smallest + 1; right < n && q.less(right, smallest) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
	}
	return top
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) { q.heap[i], q.heap[j] = q.heap[j], q.heap[i] }
