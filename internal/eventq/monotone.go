package eventq

// Monotone is the event queue of every timeline in the repository — a
// cascade's frontier and the simulator's clock: a value-typed priority
// queue tuned for *monotone* event streams, where every Push time is >=
// the time of the last Pop (delays are non-negative, so arrival times
// never run backwards). It implements exactly the (time, seq) total
// order of Queue — ties in time break by insertion order — so a
// consumer popping from a Monotone sees the same sequence it would from
// Queue, without an allocation per item and, on the common path,
// without sift work.
//
// The queue has two internal representations, moving forward only
// until Reset:
//
//   - sorted run: pending items live in one sorted slice, appended at
//     the tail (zero and constant delay models always append — pure
//     FIFO) or binary-inserted while the frontier is small, popped from
//     the head in O(1). A run that never drains (a simulation timeline)
//     reclaims its popped prefix before the slice would grow.
//   - heap: when an out-of-order push finds more than runInsertMax
//     items pending, the run — sorted, hence already a valid binary
//     heap — carries on as a min-heap on (time, seq) for the rest of
//     the run.
//
// Both realize one total order, so the switch is invisible to the
// consumer: the order is exact for any sequence of pushes, monotone or
// not. A NaN time compares unordered; where it (and its neighbours)
// pop is then unspecified, but every pushed item still pops exactly
// once.
//
// A Monotone is not safe for concurrent use, exactly like Queue.
type Monotone[T any] struct {
	seq    uint64
	heaped bool

	// items[head:] is pending: sorted by (time, seq) until heaped, a
	// binary min-heap (with head == 0) after.
	items []monoEntry[T]
	head  int
}

type monoEntry[T any] struct {
	time float64
	seq  uint64
	v    T
}

// runInsertMax is the largest pending count the sorted run absorbs
// out-of-order pushes into by binary insert; beyond it, an inversion
// moves the queue to the heap. Small frontiers (shallow TTLs, sparse
// fan-out) never leave the run, paying one short memmove instead of
// sift work.
const runInsertMax = 64

// NewMonotone returns an empty queue pre-sized to hold hint items
// without growing; hint <= 0 allocates lazily.
func NewMonotone[T any](hint int) *Monotone[T] {
	q := &Monotone[T]{}
	q.Grow(hint)
	return q
}

// Grow ensures the queue can hold at least hint items without
// reallocating — the pre-sizing hook for pooled owners (core.Scratch).
func (q *Monotone[T]) Grow(hint int) {
	if hint <= cap(q.items) {
		return
	}
	grown := make([]monoEntry[T], len(q.items), hint)
	copy(grown, q.items)
	q.items = grown
}

// Reset empties the queue, retaining its backing array for reuse.
// Sequence numbers restart at zero, so a Reset queue reproduces the
// exact pop order of a fresh one for the same push sequence.
func (q *Monotone[T]) Reset() {
	q.seq = 0
	q.heaped = false
	q.items = q.items[:0]
	q.head = 0
}

// Len returns the number of pending items.
func (q *Monotone[T]) Len() int { return len(q.items) - q.head }

// PeekTime returns the least pending time without removing its item,
// reporting ok=false when the queue is empty.
func (q *Monotone[T]) PeekTime() (t float64, ok bool) {
	if q.head == len(q.items) {
		return 0, false
	}
	// The run's head and the heap's root both hold the least entry.
	return q.items[q.head].time, true
}

// Push schedules v at time t.
func (q *Monotone[T]) Push(t float64, v T) {
	e := monoEntry[T]{time: t, seq: q.seq, v: v}
	q.seq++
	if q.heaped {
		q.heapPush(e)
		return
	}
	n := len(q.items)
	if n == q.head || t >= q.items[n-1].time {
		if n == cap(q.items) {
			q.reclaim()
		}
		q.items = append(q.items, e)
		return
	}
	if n-q.head <= runInsertMax {
		// Small frontier: a binary insert into the sorted run beats any
		// sift work — one short memmove, O(1) pops.
		if n == cap(q.items) {
			q.reclaim()
			n = len(q.items)
		}
		lo, hi := q.head, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if entryLess(e, q.items[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		q.items = append(q.items, monoEntry[T]{})
		copy(q.items[lo+1:], q.items[lo:])
		q.items[lo] = e
		return
	}
	// Large frontier: slide the pending run to index 0, where a sorted
	// slice is a heap as it stands, and sift the newcomer up.
	q.items = q.items[:copy(q.items, q.items[q.head:])]
	q.head = 0
	q.heaped = true
	q.heapPush(e)
}

// Pop removes and returns the pending item with the least (time, seq),
// reporting ok=false when the queue is empty.
func (q *Monotone[T]) Pop() (t float64, v T, ok bool) {
	if q.head == len(q.items) {
		var zero T
		return 0, zero, false
	}
	if q.heaped {
		e := q.heapPop()
		return e.time, e.v, true
	}
	e := q.items[q.head]
	q.head++
	if q.head == len(q.items) { // drained: reclaim the buffer in O(1)
		q.items = q.items[:0]
		q.head = 0
	}
	return e.time, e.v, true
}

func entryLess[T any](a, b monoEntry[T]) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *Monotone[T]) heapPush(e monoEntry[T]) {
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(q.items[i], q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Monotone[T]) heapPop() monoEntry[T] {
	e := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items = q.items[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return e
}

func (q *Monotone[T]) siftDown(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && entryLess(q.items[right], q.items[left]) {
			smallest = right
		}
		if !entryLess(q.items[smallest], q.items[i]) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// reclaim slides the pending run to the front of a full slice when at
// least half of it is popped, rather than carry the dead entries into a
// grown slice; the half bound keeps the slides amortized O(1) per pop.
func (q *Monotone[T]) reclaim() {
	if q.head > 0 && 2*q.head >= len(q.items) {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
}
