package live

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// This file is the flood: how a node handles a query copy, the
// activation records and acks that detect the flood's termination, and
// the duplicate cache that remembers what the node has seen. DESIGN.md,
// "Exact completion", has the argument for why it terminates, why it is
// exact and why completion never overtakes a hit.

// handleQuery processes one copy of a flooding query. Every copy is
// answered by exactly one ack to its sender, sent when the part of the
// flood behind the copy is exhausted: at once when the copy is a
// duplicate, lands on a holder, has used up its TTL or finds nobody to
// forward to; otherwise when every copy forwarded on its behalf has
// been acked in turn.
func (n *Node) handleQuery(st *state, env *Envelope) {
	e, dup := st.seen.visit(env.QueryID)
	if dup && (env.Hops >= e.hops || n.cfg.Store.Has(env.Key)) {
		// Nothing new to do for this copy. If it is the copy this node
		// acted on all over again (same sender, same distance: the wire
		// duplicated it), its one ack is that action's to give, now or
		// later; any other copy is acked empty-handed, which is also what
		// a repeat of it would get — so no sender ever sees two different
		// acks for one copy, in whatever order they arrive.
		if env.From != e.from || env.Hops != e.hops {
			n.ack(env, 0, false)
		}
		return
	}
	// The first copy to arrive, or one that came by a strictly shorter
	// route than every copy before it: first-copy-wins alone would let a
	// relay reached first by a long route run out of hops and cut the
	// flood short of the TTL ball.
	n.cfg.Stats.QueriesSeen.Inc()
	e.from, e.hops = env.From, env.Hops
	if !dup && n.cfg.Store.Has(env.Key) {
		n.cfg.Stats.HitsServed.Inc()
		sent := n.send(env.Origin, Envelope{
			Type: MsgHit, From: n.cfg.ID,
			QueryID: env.QueryID, Key: env.Key,
			Hops: env.Hops, Class: n.cfg.Class,
		})
		if sent {
			n.ack(env, 1, false)
		} else {
			n.ack(env, 0, true) // the hit is the lost part of the flood
		}
		return // the case study does not forward past a serving node
	}
	if env.Hops >= env.TTL {
		n.ack(env, 0, false)
		return
	}
	// Flood: every neighbor but the sender and the origin.
	targets := st.fwdBuf[:0]
	for _, nb := range st.neighbors {
		if nb != env.From && nb != env.Origin {
			targets = append(targets, nb)
		}
	}
	st.fwdBuf = targets
	n.cfg.Stats.QueriesForwarded.Add(uint64(len(targets)))

	if r := st.acts.live(e.act, env.QueryID); r != nil {
		// Still forwarding for an earlier, longer copy: the record moves
		// under the new sender. The old one is acked empty-handed (for
		// its route this node is now a duplicate); whatever the earlier
		// copies still turn up is reported along the shorter route.
		n.ack(r.copy(), 0, false)
	} else if len(targets) == 0 {
		n.ack(env, 0, false)
		return
	} else {
		e.act = st.acts.alloc(env.QueryID)
	}
	r := &st.acts.recs[e.act]
	r.from, r.pslot, r.pseq = env.From, env.Slot, env.Seq
	fwd := *env
	fwd.From, fwd.Slot = n.cfg.ID, e.act
	fwd.Hops++
	n.fanout(st, e, targets, fwd)
}

// fanout sends one copy of env to every target on behalf of the
// activation record e.act and finishes the record if none of them is
// left to wait for. Each copy gets the next ack bit of the query at this
// node; a copy the transport refuses is a lost subtree.
func (n *Node) fanout(st *state, e *seenEntry, targets []topology.NodeID, env Envelope) {
	r := &st.acts.recs[e.act]
	for _, nb := range targets {
		if e.nseq == maxCopies {
			// Out of ack bits (more than 64 copies of one query from one
			// node): the copy still goes out, so the flood reaches what it
			// should, but its end cannot be waited for.
			env.Seq = maxCopies
			n.send(nb, env)
			r.lost = true
			continue
		}
		env.Seq = e.nseq
		e.nseq++
		if n.send(nb, env) {
			r.waiting |= 1 << env.Seq
		} else {
			r.lost = true
		}
	}
	if r.waiting == 0 {
		n.finish(st, e.act)
	}
}

// finish closes activation record i, whose copies are all accounted
// for: the origin's record hands the completion mark to its collector,
// any other acks the copy it was forwarding for.
func (n *Node) finish(st *state, i uint16) {
	r := &st.acts.recs[i]
	if r.from != topology.None {
		n.ack(r.copy(), r.served, r.lost)
	} else if c := st.pending[r.qid]; c != nil {
		select {
		case c.results <- completionMark(r.served, r.lost):
		default: // results full: the query ends on its window
		}
	}
	st.acts.release(i)
}

// ack answers the query copy env to its sender. A failed send needs no
// handling: the sender's record stays open and the origin ends on its
// window.
func (n *Node) ack(env *Envelope, served uint32, lost bool) {
	n.cfg.Stats.AcksSent.Inc()
	n.send(env.From, Envelope{
		Type: MsgAck, From: n.cfg.ID,
		QueryID: env.QueryID, Slot: env.Slot, Seq: env.Seq,
		Served: served, Lost: lost,
	})
}

const (
	// inboxCap is a node's inbox depth. What fills it is floods in
	// flight: 64 callers with one flood each (the daemon's batch plane at
	// its default) were seen to queue 190 envelopes at a hot node, 128
	// callers 430. Callers that probe back to back without settling stack
	// the tails of their earlier floods on top: 64 of them reached 1250.
	inboxCap = 1024
	// maxTTL is the deepest search an Envelope can carry.
	maxTTL = 255
	// maxCopies is how many copies of one query one node can await acks
	// for: one bit each in activation.waiting.
	maxCopies = 64
	// maxActs caps a node's activation table.
	maxActs = 4096
)

// activation is one node's share of a flood in progress: the copies it
// sent on behalf of a query copy it received, and what their acks have
// reported so far. When the last of them is in, the record acks that
// copy in turn (or, at the origin, completes the query) and is freed.
type activation struct {
	qid core.QueryID
	// waiting has one bit per copy still unacknowledged; zero means the
	// record is free.
	waiting uint64
	// served and lost accumulate what the acks reported.
	served uint32
	// from sent the copy this record forwards for (None at the origin);
	// pslot and pseq are that copy's Slot and Seq, echoed in its ack.
	from  topology.NodeID
	pslot uint16
	next  uint16 // free list link: index+1
	pseq  uint8
	lost  bool
}

// copy names the query copy r forwards for, as far as its ack needs.
func (r *activation) copy() *Envelope {
	return &Envelope{From: r.from, QueryID: r.qid, Slot: r.pslot, Seq: r.pseq}
}

// actTable is a node's activation records: a table that grows with the
// number of floods the node relays at once, up to maxActs, and recycles
// freed records last-in first-out so a quiet node touches only a few.
// Acks address records by index, so nothing here is ever looked up.
type actTable struct {
	recs  []activation
	free  uint16 // head of the free list: index+1, 0 when empty
	evict uint16 // next victim once the table is full and at its cap
}

// alloc returns a zeroed record for qid. With the table at its cap and
// every record busy, the oldest-allocated one is overwritten: its flood
// branch never acks, and the origin of that query ends on its window.
func (t *actTable) alloc(qid core.QueryID) uint16 {
	var i uint16
	switch {
	case t.free != 0:
		i = t.free - 1
		t.free = t.recs[i].next
	case len(t.recs) < maxActs:
		i = uint16(len(t.recs))
		t.recs = append(t.recs, activation{})
	default:
		i = t.evict
		t.evict = (t.evict + 1) % maxActs
	}
	t.recs[i] = activation{qid: qid}
	return i
}

// release frees record i.
func (t *actTable) release(i uint16) {
	t.recs[i].waiting = 0
	t.recs[i].next = t.free
	t.free = i + 1
}

// live returns record i if it still serves qid, else nil.
func (t *actTable) live(i uint16, qid core.QueryID) *activation {
	if int(i) < len(t.recs) && t.recs[i].qid == qid && t.recs[i].waiting != 0 {
		return &t.recs[i]
	}
	return nil
}

// seenSet is the bounded duplicate cache ("each node keeps a list of
// recent messages"): the last seenCap queries in a ring, found through
// an open-addressed index of ring positions. A new query overwrites the
// oldest entry, whose index slot is closed by backward-shift deletion,
// so the retention window is exactly seenCap queries and the index
// never holds a tombstone. Besides "seen", an entry records what
// termination detection needs to know about the query at this node.
const (
	// seenCap keeps the retention window above what the fabric
	// interleaves between two copies of one query: the oldest entry a
	// duplicate ever found was 400 queries back under 64 callers probing
	// back to back (the daemon's default), 700 under 256. The per-node
	// tables (16KB + 8KB) stay cache-resident.
	seenCap     = 1024
	seenBits    = 11                 // index slots: load factor <= 1/2
	seenTabSize = 1 << seenBits      // = 2 * seenCap
	seenMask    = seenTabSize - 1    // power-of-two probe mask
	seenHashK   = 0x9e3779b97f4a7c15 // Fibonacci multiplier
)

// seenEntry is what a node remembers about one query.
type seenEntry struct {
	qid core.QueryID
	// from and hops identify the copy the node acted on: the first to
	// arrive, then any that came by a strictly shorter route.
	from topology.NodeID
	// act is the activation record forwarding for that copy, while
	// actTable.live says so.
	act  uint16
	hops uint8
	// nseq is the number of copies of the query this node has sent; each
	// gets its own ack bit, also across re-forwards.
	nseq uint8
}

type seenSet struct {
	ring []seenEntry
	// index slots hold ring position+1 in the low half (0 means empty)
	// and the entry's home slot in the high half, so a probe reads the
	// ring only for entries that hash where its own query does, and a
	// deletion shifts slots without reading the ring at all.
	index []uint32
	next  int  // ring position the next new query takes
	full  bool // the ring has wrapped: taking a position evicts its entry
}

func newSeenSet() seenSet {
	return seenSet{
		ring:  make([]seenEntry, seenCap),
		index: make([]uint32, seenTabSize),
	}
}

// seenSlot maps a query ID to its home slot (top bits of a Fibonacci
// hash — query IDs are origin<<32|counter, so low bits alone collide
// across origins).
func seenSlot(qid core.QueryID) uint32 {
	return uint32((uint64(qid) * seenHashK) >> (64 - seenBits))
}

// visit returns the entry of qid, creating it (zeroed, evicting the
// oldest query) when this is the first visit; dup reports that it was
// already there. The pointer is good until the next visit.
func (s *seenSet) visit(qid core.QueryID) (e *seenEntry, dup bool) {
	home := seenSlot(qid)
	for i := home; s.index[i] != 0; i = (i + 1) & seenMask {
		if v := s.index[i]; v>>16 == home {
			if e := &s.ring[v&0xffff-1]; e.qid == qid {
				return e, true
			}
		}
	}
	pos := s.next
	s.next = (pos + 1) % seenCap
	e = &s.ring[pos]
	if s.full {
		s.unindex(seenSlot(e.qid), uint32(pos+1))
	} else if s.next == 0 {
		s.full = true
	}
	*e = seenEntry{qid: qid}
	i := home
	for s.index[i] != 0 {
		i = (i + 1) & seenMask
	}
	s.index[i] = home<<16 | uint32(pos+1)
	return e, false
}

// unindex removes the index slot of ring position p-1, whose entry
// hashes to home, and shifts the rest of its probe run back over the
// gap.
func (s *seenSet) unindex(home, p uint32) {
	i := home
	for s.index[i]&0xffff != p {
		i = (i + 1) & seenMask
	}
	for j := (i + 1) & seenMask; s.index[j] != 0; j = (j + 1) & seenMask {
		// The entry at j may fill the gap at i unless its home lies
		// strictly between them: it must stay reachable from its home.
		if (j-s.index[j]>>16)&seenMask >= (j-i)&seenMask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}
