package topology

import (
	"sync"
	"sync/atomic"
)

// SnapshotStore serves immutable CSR snapshots of one mutable Network
// to concurrent readers while a writer re-freezes behind their backs —
// the zero-downtime replacement for the stop-the-world FreezeInto
// pattern, where every reader had to drain before an epoch could turn
// over.
//
// The store is a double buffer generalized by epoch-based reclamation:
//
//   - Readers call Acquire, which pins the current epoch's *CSR behind
//     a per-epoch reference count, run any number of cascades on it,
//     and Release the pin. A pinned snapshot is immutable for the whole
//     pin lifetime, no matter how many epochs the writer publishes
//     meanwhile — a cascade can never observe a half-frozen graph.
//   - The writer hands delta batches to Apply, which applies them to
//     the build-side Network, freezes it into an off-duty buffer
//     (recycled from a fully-drained retired epoch when one exists,
//     freshly allocated otherwise) and installs it with one atomic
//     pointer swap. The swap is the linearization point: queries pinned before it run to completion
//     on the old adjacency, queries pinned after it see the new one,
//     and no query sees anything in between.
//   - A retired epoch's buffer is reclaimed (pushed onto the free
//     list for the next Freeze to reuse) only when its last pin drains.
//     At steady state — readers shorter than the inter-publish interval
//     — exactly two buffers alternate and publishing allocates nothing
//     beyond the small per-epoch header; a long-held pin keeps its
//     epoch's buffer out of rotation (the store grows a third buffer)
//     rather than blocking the writer or, worse, being overwritten
//     under the reader.
//
// Apply serializes on an internal mutex, so multiple writer goroutines
// are safe and never publish an epoch holding half of another call's
// batch. Readers never take the writer lock — Acquire/Release are a
// handful of atomic operations — and the writer never waits for
// readers.
type SnapshotStore struct {
	net *Network
	cur atomic.Pointer[storeEpoch]

	// mu serializes writers and guards free. Readers touch it only on
	// the reclamation edge (the last Release of a retired epoch).
	mu   sync.Mutex
	free []*CSR

	// allocs counts CSR buffers ever allocated (see Buffers).
	allocs atomic.Int64
}

// storeEpoch is one published snapshot plus its reclamation state. The
// header is allocated fresh per publish and never reused, so an epoch
// pointer read from the store can never be confused with a later
// epoch (no ABA on the Acquire re-check).
type storeEpoch struct {
	store *SnapshotStore
	csr   *CSR
	seq   uint64
	// refs counts pins plus one store-held reference while the epoch
	// is current; the store's reference is dropped at retirement, so
	// refs reaching zero means "retired and drained".
	refs atomic.Int64
	// retired flips once, before the store's reference is dropped;
	// recycled guards the buffer handoff so the transient
	// increment/decrement of a racing Acquire re-check cannot push one
	// buffer onto the free list twice.
	retired  atomic.Bool
	recycled atomic.Bool
}

// Pin is one reader's lease on an epoch: the snapshot it may search
// and the obligation to Release. The zero Pin is invalid; Pins are
// value types (acquiring allocates nothing) and must not be copied
// into two owners — exactly one Release per Acquire.
type Pin struct {
	ep *storeEpoch
}

// Graph returns the pinned snapshot. Valid until Release.
func (p Pin) Graph() *CSR { return p.ep.csr }

// Epoch returns the pinned epoch's sequence number (1 for the epoch
// NewSnapshotStore froze, +1 per Apply).
func (p Pin) Epoch() uint64 { return p.ep.seq }

// Release drops the pin. The last release of a retired epoch recycles
// its buffer into the writer's free list. Release must be called
// exactly once; the Pin is dead afterwards.
func (p Pin) Release() { p.ep.unref() }

// NewSnapshotStore freezes net into epoch 1 and returns the store
// serving it. The store takes over net: from here on it changes only
// through Apply, so buffer recycling stays sound — a caller-side
// mutation or FreezeInto would race pinned readers.
func NewSnapshotStore(net *Network) *SnapshotStore {
	s := &SnapshotStore{net: net}
	ep := &storeEpoch{store: s, csr: net.Freeze(), seq: 1}
	ep.refs.Store(1) // the store's own reference
	s.allocs.Store(1)
	s.cur.Store(ep)
	return s
}

// Len returns the node count (fixed for the store's lifetime).
func (s *SnapshotStore) Len() int { return s.net.Len() }

// Epoch returns the current epoch's sequence number.
func (s *SnapshotStore) Epoch() uint64 { return s.cur.Load().seq }

// Acquire pins the current epoch and returns the lease. The
// increment-then-re-check loop closes the race with a concurrent
// Apply: if the epoch pointer moved between the load and the
// increment, the pin may have landed on a retired (even drained)
// epoch, so it is dropped and the acquire retried on the fresh
// pointer. The transient reference is harmless — unref recycles a
// retired epoch's buffer at most once — and the loop runs at most a
// handful of times even under a publish storm, because each retry
// re-reads a pointer that a finite number of publishes can move.
func (s *SnapshotStore) Acquire() Pin {
	for {
		ep := s.cur.Load()
		ep.refs.Add(1)
		if s.cur.Load() == ep {
			return Pin{ep: ep}
		}
		ep.unref()
	}
}

// unref drops one reference; the reference that retires *and* drains
// the epoch hands its buffer to the free list. The store's own
// reference (dropped in Apply after retired flips) guarantees that
// whoever takes refs to zero observes retired == true.
func (ep *storeEpoch) unref() {
	if ep.refs.Add(-1) == 0 && ep.retired.Load() &&
		ep.recycled.CompareAndSwap(false, true) {
		st := ep.store
		st.mu.Lock()
		st.free = append(st.free, ep.csr)
		st.mu.Unlock()
	}
}

// Apply applies one delta batch to the build-side network and
// publishes the resulting epoch — the single call a churn consumer
// needs. Batch application and the freeze happen under one writer
// critical section, so concurrent Apply calls never publish an epoch
// holding half of another call's batch. It returns the new epoch's
// sequence number. The freeze runs on the writer's goroutine against
// an off-duty buffer, so readers are never paused: the only
// reader-visible effect is the pointer swap at the end.
func (s *SnapshotStore) Apply(ds []Delta) uint64 {
	s.mu.Lock()
	s.net.ApplyAll(ds)
	var buf *CSR
	if n := len(s.free); n > 0 {
		buf, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.allocs.Add(1)
	}
	old := s.cur.Load()
	ep := &storeEpoch{store: s, csr: s.net.FreezeInto(buf), seq: old.seq + 1}
	ep.refs.Store(1)
	s.cur.Store(ep) // linearization point: new pins land here
	old.retired.Store(true)
	s.mu.Unlock()
	// Drop the store's reference to the retired epoch only after
	// releasing mu: unref's reclamation edge takes mu itself, so
	// dropping it inside the critical section would deadlock exactly
	// when no reader holds the retired epoch (the common case).
	old.unref()
	return ep.seq
}

// Buffers reports how many CSR buffers the store owns in total: the
// live epoch's, those of retired-but-still-pinned epochs, and the free
// list. The store never frees a buffer, so this equals the number of
// publishes that found the free list empty, plus the initial freeze.
// Two is the steady state (the double buffer proper); the excess over
// two measures how far behind the slowest reader has fallen —
// observability for the reclamation tests and serving telemetry.
func (s *SnapshotStore) Buffers() int { return int(s.allocs.Load()) }
