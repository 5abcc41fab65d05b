package core

import (
	"repro/internal/eventq"
	"repro/internal/topology"
)

// Scratch is the pooled working state of one cascade or exploration.
// NodeIDs are dense 0-based indices (see topology.NodeID), so all
// per-node query state lives in flat slices indexed by node instead of
// maps: a visited check is one bounds check and one epoch compare, and
// starting a new cascade is a single counter increment instead of a
// fresh map allocation.
//
// A Scratch is owned by one caller (one simulation loop) and reused
// across cascades — the simulator in internal/gnutella carries one per
// Sim and drives hundreds of thousands of queries through it without
// per-query allocation. It is NOT safe for concurrent use; parallelism
// lives one level up, in internal/runner, where every cell owns its own
// Sim and therefore its own Scratch.
//
// Outcomes returned by RunScratch/ExploreScratch alias the Scratch's
// pooled buffers: they are valid until the next call with the same
// Scratch. Run/Explore (nil scratch) keep the historical own-everything
// semantics.
type Scratch struct {
	// epoch brands the slot arrays: a slot belongs to the current
	// cascade iff slot.epoch == epoch (and analogously idxEpoch for the
	// index-answered set). Bumping epoch invalidates every slot in O(1).
	epoch  uint32
	visits []visitSlot

	// queue orders in-flight query copies by (arrival time, push seq),
	// an exact total order whichever representation of eventq.Monotone
	// serves a cascade.
	queue eventq.Monotone[arrivalPayload]

	// Pooled result and working buffers, reused across cascades.
	results  []Result
	findings []Finding
	heldBuf  []Key
	fwd      []topology.NodeID
}

// visitSlot is the per-node state of the current cascade: the reverse
// route for replies plus the epoch stamps that say which cascade (if
// any) the data belongs to.
type visitSlot struct {
	epoch        uint32 // slot is visited in the cascade iff == Scratch.epoch
	idxEpoch     uint32 // node was answered for via a local index iff == Scratch.epoch
	hops         int32
	parent       topology.NodeID
	forwardDelay float64
}

// queueHint bounds the event-queue pre-size: the queue holds in-flight
// message copies (the cascade frontier), which is governed by fan-out
// and TTL, not the network size — a TTL-4 degree-4 flood keeps a few
// hundred in flight whether the network has 1k or 1M nodes.
const queueHint = 1024

// NewScratch returns a Scratch pre-sized for networks of n nodes: the
// per-node slot array holds n entries and the event queue's backing
// array is sized for a deep flood's frontier, so first cascades pay no
// growth pauses. Slots still grow on demand — n is a capacity hint, not
// a limit.
func NewScratch(n int) *Scratch {
	if n < 0 {
		n = 0
	}
	s := &Scratch{visits: make([]visitSlot, n)}
	if n > 0 {
		hint := n
		if hint > queueHint {
			hint = queueHint
		}
		s.queue.Grow(hint)
	}
	return s
}

// begin opens a new cascade: every slot of the previous one is
// invalidated by the epoch bump.
func (s *Scratch) begin() {
	s.epoch++
	if s.epoch == 0 { // uint32 wrap after ~4e9 cascades: hard-reset stamps
		for i := range s.visits {
			s.visits[i] = visitSlot{}
		}
		s.epoch = 1
	}
	s.queue.Reset()
}

// slot returns the state cell of id, growing the slot array as needed.
func (s *Scratch) slot(id topology.NodeID) *visitSlot {
	if int(id) >= len(s.visits) {
		n := int(id) + 1
		if n < 2*len(s.visits) {
			n = 2 * len(s.visits)
		}
		grown := make([]visitSlot, n)
		copy(grown, s.visits)
		s.visits = grown
	}
	return &s.visits[id]
}

// visited reports whether id was processed in the current cascade.
func (s *Scratch) visited(id topology.NodeID) bool {
	return int(id) < len(s.visits) && s.visits[id].epoch == s.epoch
}

// arrivalPayload is the queue payload of one in-flight query copy; the
// arrival time and the deterministic tiebreak live in the queue's keys.
type arrivalPayload struct {
	node topology.NodeID
	from topology.NodeID // forwarding neighbor (reverse-route next hop)
	hops int32
}

// arrival is one in-flight copy of the query as the cascade loop sees
// it: the queue key (time) plus the payload.
type arrival struct {
	time float64
	node topology.NodeID
	from topology.NodeID
	hops int32
}

// pushArrival schedules one query copy for arrival at time t.
func (s *Scratch) pushArrival(t float64, node, from topology.NodeID, hops int32) {
	s.queue.Push(t, arrivalPayload{node: node, from: from, hops: hops})
}

// popArrival removes and returns the earliest arrival; ok is false when
// no copies are in flight.
func (s *Scratch) popArrival() (arrival, bool) {
	t, p, ok := s.queue.Pop()
	if !ok {
		return arrival{}, false
	}
	return arrival{time: t, node: p.node, from: p.from, hops: p.hops}, true
}
