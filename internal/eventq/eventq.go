// Package eventq implements the timed priority queue that backs the
// discrete-event simulation engine in internal/sim.
//
// It is a classic indexed binary min-heap keyed on (time, sequence):
// ties in simulated time break by insertion order so that the engine is
// fully deterministic regardless of map iteration or scheduling
// artifacts. Cancellation is O(log n) via the index kept inside each
// item.
package eventq

import "fmt"

// Item is a scheduled entry. The zero value is not useful; items are
// created by Queue.Push, which returns a handle usable with Cancel.
type Item struct {
	Time  float64 // simulated seconds
	Seq   uint64  // tiebreaker: insertion order
	Value any     // payload interpreted by the engine
	index int     // position in the heap, -1 when popped/cancelled
}

// Queue is a deterministic time-ordered priority queue. It is not safe
// for concurrent use; the simulation engine is single-threaded by
// design (determinism first).
type Queue struct {
	heap []*Item
	seq  uint64
}

// New returns an empty queue.
func New() *Queue { return &Queue{} }

// Len returns the number of pending items.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules value at time t and returns a cancellable handle.
func (q *Queue) Push(t float64, value any) *Item {
	it := &Item{Time: t, Seq: q.seq, Value: value, index: len(q.heap)}
	q.seq++
	q.heap = append(q.heap, it)
	q.up(it.index)
	return it
}

// Peek returns the earliest item without removing it, or nil when the
// queue is empty.
func (q *Queue) Peek() *Item {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
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
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

// Cancel removes a previously pushed item. It returns false if the item
// was already popped or cancelled.
func (q *Queue) Cancel(it *Item) bool {
	if it == nil || it.index < 0 {
		return false
	}
	i := it.index
	if q.heap[i] != it {
		panic(fmt.Sprintf("eventq: corrupted heap index %d", i))
	}
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		if !q.down(i) {
			q.up(i)
		}
	}
	it.index = -1
	return true
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts index i toward the leaves; it reports whether the item
// moved (used by Cancel to decide whether to sift up).
func (q *Queue) down(i int) bool {
	moved := false
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
		moved = true
	}
	return moved
}
