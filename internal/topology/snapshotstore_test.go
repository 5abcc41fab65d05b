package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// adjacency materializes a graph view as a per-node copy of its
// outgoing lists, the common currency of the identity assertions.
func adjacency(out func(NodeID) []NodeID, n int) [][]NodeID {
	adj := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		adj[i] = append([]NodeID(nil), out(NodeID(i))...)
	}
	return adj
}

// randomDeltas draws a batch of count deltas — rewires, raw
// connects/disconnects and the occasional isolate — from rnd.
func randomDeltas(rnd *rand.Rand, n, count int) []Delta {
	ds := make([]Delta, 0, count)
	for len(ds) < count {
		src := NodeID(rnd.Intn(n))
		dst := NodeID(rnd.Intn(n))
		switch rnd.Intn(8) {
		case 0:
			ds = append(ds, Delta{Op: OpIsolate, Src: src})
		case 1, 2:
			ds = append(ds, Delta{Op: OpDisconnect, Src: src, Dst: dst})
		default:
			ds = append(ds, Delta{Op: OpConnect, Src: src, Dst: dst})
		}
	}
	return ds
}

// wireDegree4 seeds an initial topology (best-effort degree-4) for the
// store tests.
func wireDegree4(net *Network, rnd *rand.Rand) {
	n := net.Len()
	for i := 0; i < n; i++ {
		for attempts := 0; attempts < 8 && net.Node(NodeID(i)).Out.Len() < 4; attempts++ {
			net.Connect(NodeID(i), NodeID(rnd.Intn(n)))
		}
	}
}

// TestDeltaReplayMatchesFreshFreeze is the churn-delta property suite:
// random interleavings of connects, disconnects, rewires and isolates
// applied as deltas through the store must leave the published
// snapshot byte-identical to a fresh stop-the-world Freeze of an
// independently mutated replica network.
func TestDeltaReplayMatchesFreshFreeze(t *testing.T) {
	const n = 400
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			build := func() *Network {
				rnd := rand.New(rand.NewSource(int64(1000 + trial)))
				net := NewNetwork(Symmetric, n, 4, 4)
				wireDegree4(net, rnd)
				return net
			}
			live, replica := build(), build()
			store := NewSnapshotStore(live)

			rnd := rand.New(rand.NewSource(int64(trial)))
			for epoch := 0; epoch < 10; epoch++ {
				ds := randomDeltas(rnd, n, 50)
				store.Apply(ds)
				replica.ApplyAll(ds)

				pin := store.Acquire()
				got := adjacency(pin.Graph().Out, n)
				want := adjacency(replica.Freeze().Out, n)
				pin.Release()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d: store snapshot diverged from fresh freeze", epoch+1)
				}
				// And against the replica's live adjacency: Freeze itself
				// is covered elsewhere, but the triple equality pins the
				// whole chain in one place.
				if liveAdj := adjacency(replica.Out, n); !reflect.DeepEqual(got, liveAdj) {
					t.Fatalf("epoch %d: snapshot diverged from live adjacency", epoch+1)
				}
			}
		})
	}
}

// TestHeldPinSurvivesSwaps is the reclamation argument's load-bearing
// test: a reader that keeps its pin across N publishes must see its
// epoch's adjacency bit-for-bit unchanged — the buffer must never
// re-enter rotation while pinned — and the store must grow beyond the
// double buffer rather than corrupt it.
func TestHeldPinSurvivesSwaps(t *testing.T) {
	const n, swaps = 300, 12
	rnd := rand.New(rand.NewSource(7))
	net := NewNetwork(Symmetric, n, 4, 4)
	wireDegree4(net, rnd)
	store := NewSnapshotStore(net)

	held := store.Acquire()
	if got, want := held.Epoch(), uint64(1); got != want {
		t.Fatalf("initial epoch %d, want %d", got, want)
	}
	frozen := adjacency(held.Graph().Out, n)

	for i := 0; i < swaps; i++ {
		store.Apply(randomDeltas(rnd, n, 40))
		if got := adjacency(held.Graph().Out, n); !reflect.DeepEqual(got, frozen) {
			t.Fatalf("held pin's adjacency changed after swap %d", i+1)
		}
	}
	if got, want := store.Epoch(), uint64(1+swaps); got != want {
		t.Fatalf("store epoch %d after %d swaps, want %d", got, swaps, want)
	}
	// The held pin wedges one buffer out of rotation, so the store
	// needs exactly three: the pinned one plus the alternating pair.
	if got := store.Buffers(); got != 3 {
		t.Fatalf("store grew %d buffers under a held pin, want 3", got)
	}

	held.Release()
	// With the pin gone the buffer re-enters the free list and steady
	// state resumes with no further allocation.
	before := store.Buffers()
	for i := 0; i < swaps; i++ {
		store.Apply(randomDeltas(rnd, n, 40))
	}
	if got := store.Buffers(); got != before {
		t.Fatalf("store allocated %d new buffers after release, want 0", got-before)
	}
}

// TestSteadyStateDoubleBuffer: publishes with no readers (or readers
// that release promptly) must alternate two buffers and allocate
// nothing further.
func TestSteadyStateDoubleBuffer(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	net := NewNetwork(PureAsymmetric, 200, 4, 0)
	wireDegree4(net, rnd)
	store := NewSnapshotStore(net)

	for i := 0; i < 50; i++ {
		pin := store.Acquire()
		store.Apply(randomDeltas(rnd, 200, 10))
		pin.Release()
	}
	if got := store.Buffers(); got > 3 {
		t.Fatalf("steady-state publishing grew %d buffers, want <= 3", got)
	}
}

// TestAcquireRelease covers the pin bookkeeping edges: epoch numbers
// advance by one per publish, Acquire after a publish sees the new
// epoch, and concurrent pins on one epoch are independent.
func TestAcquireRelease(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 10, 2, 0)
	net.Connect(0, 1)
	store := NewSnapshotStore(net)

	a, b := store.Acquire(), store.Acquire()
	if a.Epoch() != 1 || b.Epoch() != 1 {
		t.Fatalf("pins on epochs %d/%d, want 1/1", a.Epoch(), b.Epoch())
	}
	if got := store.Apply([]Delta{{Op: OpConnect, Src: 1, Dst: 2}}); got != 2 {
		t.Fatalf("publish returned %d, want 2", got)
	}
	c := store.Acquire()
	if c.Epoch() != 2 {
		t.Fatalf("post-publish pin on epoch %d, want 2", c.Epoch())
	}
	if got := a.Graph().Out(1); len(got) != 0 {
		t.Fatalf("old epoch sees new edge: %v", got)
	}
	if got := c.Graph().Out(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("new epoch adjacency %v, want [2]", got)
	}
	a.Release()
	b.Release()
	c.Release()
}

// TestSnapshotStoreConcurrentReaders hammers Acquire/Release from many
// goroutines across forced swaps under -race: every pinned snapshot
// must be internally consistent (edge slice boundaries sane, no
// mid-freeze tearing), checked by walking the full adjacency of the
// pinned epoch while the writer churns.
func TestSnapshotStoreConcurrentReaders(t *testing.T) {
	const (
		n       = 500
		readers = 16
		walks   = 25 // per reader, spread across the writer's swaps
	)
	rnd := rand.New(rand.NewSource(23))
	net := NewNetwork(Symmetric, n, 4, 4)
	wireDegree4(net, rnd)
	store := NewSnapshotStore(net)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < walks; w++ {
				pin := store.Acquire()
				csr := pin.Graph()
				// Full walk: every neighbor in range, degree sums equal
				// the edge count — a torn snapshot fails loudly here.
				edges := 0
				for i := 0; i < n; i++ {
					for _, nb := range csr.Out(NodeID(i)) {
						if nb < 0 || int(nb) >= n {
							t.Errorf("neighbor %d outside [0,%d)", nb, n)
							pin.Release()
							return
						}
					}
					edges += len(csr.Out(NodeID(i)))
				}
				if edges != csr.EdgeCount() {
					t.Errorf("degree sum %d != edge count %d", edges, csr.EdgeCount())
					pin.Release()
					return
				}
				pin.Release()
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	// The writer churns until every reader finished its walks, so pins
	// genuinely overlap swaps regardless of scheduling.
	swaps := 0
	for {
		select {
		case <-done:
			if got, want := store.Epoch(), uint64(1+swaps); got != want {
				t.Fatalf("final epoch %d after %d swaps, want %d", got, swaps, want)
			}
			return
		default:
			store.Apply(randomDeltas(rnd, n, 30))
			swaps++
		}
	}
}

// TestRewireDelta checks the two-delta rewire helper round-trips
// through Apply with Network-call semantics.
func TestRewireDelta(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 4, 2, 0)
	net.Connect(0, 1)
	ds := Rewire(0, 1, 2)
	if got := net.ApplyAll(ds[:]); got != 2 {
		t.Fatalf("rewire applied %d deltas, want 2", got)
	}
	if out := net.Out(0); len(out) != 1 || out[0] != 2 {
		t.Fatalf("post-rewire out(0) = %v, want [2]", out)
	}
	// Re-applying is a no-op pair under method semantics: the
	// disconnect fails (edge 0→1 gone) and the connect fails (0→2
	// exists).
	if got := net.ApplyAll(ds[:]); got != 0 {
		t.Fatalf("replayed rewire changed %d, want 0", got)
	}
}
