package live

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// MapStore is a live node's local content: an in-memory key set. It is
// safe for concurrent reads after construction; use Add only before
// Start.
type MapStore map[core.Key]struct{}

// Has reports whether key is held.
func (m MapStore) Has(key core.Key) bool {
	_, ok := m[key]
	return ok
}

// Add inserts a key.
func (m MapStore) Add(key core.Key) { m[key] = struct{}{} }

// Config parameterizes a live node.
type Config struct {
	// ID is the node's network-unique identity.
	ID topology.NodeID
	// Neighbors is the symmetric neighbor capacity.
	Neighbors int
	// TTL is the default search depth, 1 to 255 (what an Envelope carries).
	TTL int
	// Transport delivers messages. Required.
	Transport Transport
	// Store answers local content. Required.
	Store MapStore
	// Class is this node's access-link class, advertised on hits.
	Class netsim.BandwidthClass
	// ReconfigThreshold is θ: reconfigure after this many searches
	// (0 disables automatic reconfiguration).
	ReconfigThreshold int
	// Stats, when non-nil, receives this node's event counters. One
	// NodeStats is typically shared by every node of a process (the
	// daemon's /v1/stats aggregates per-process, not per-node).
	Stats *NodeStats
}

// NodeStats aggregates the transport-visible events of one or more
// nodes as atomic counters, safe to read from any goroutine while the
// nodes run (internal/daemon exposes them over HTTP).
type NodeStats struct {
	// QueriesSeen counts query envelopes processed after duplicate
	// suppression; QueriesForwarded counts propagated copies.
	QueriesSeen, QueriesForwarded metrics.Counter
	// HitsServed counts local-store answers sent; HitsReceived counts
	// hit replies delivered back to queries this process originated.
	HitsServed, HitsReceived metrics.Counter
	// InboxDropped counts envelopes lost to a saturated inbox.
	InboxDropped metrics.Counter
	// SendFailed counts envelopes the transport refused on the send
	// side (a full inbox in this process, an unreachable peer process)
	// — the send-side twin of InboxDropped.
	SendFailed metrics.Counter
	// AcksSent counts MsgAck envelopes sent: one per query copy whose
	// part of the flood is exhausted.
	AcksSent metrics.Counter
	// QueriesComplete counts originated queries that ended because
	// the flood terminated (every first-hop copy acknowledged and every
	// announced hit collected); QueriesWindowFallback counts those that
	// ended on the collection window instead — a lost ack, a dropped
	// message or an evicted record somewhere in the flood.
	QueriesComplete, QueriesWindowFallback metrics.Counter
}

// SearchHit is one result of a live search.
type SearchHit struct {
	// Holder is the answering node.
	Holder topology.NodeID
	// Hops is the forward distance the query traveled.
	Hops int
	// Class is the answering link's advertised bandwidth class.
	Class netsim.BandwidthClass
}

// Node is one live repository: an actor goroutine working off an inbox,
// and the mutable state (neighbor set, ledger, duplicate cache, pending
// searches) it works on.
type Node struct {
	cfg Config
	// mu guards st. The actor holds it while it works off a burst of its
	// inbox and lets go before it parks; a sender whose ack or hit finds
	// the node idle takes it to do that bit of work on the spot
	// (deliverNow) instead of waking the actor for it.
	mu      sync.Mutex
	st      state
	inbox   chan Envelope
	ctl     chan ctlMsg
	done    chan struct{}
	closing chan struct{}
	wg      sync.WaitGroup

	closeOnce sync.Once

	// upd takes both halves of the node's Algo 4 decisions with the
	// paper's case-study constants.
	upd core.SymmetricUpdater

	// nextQID numbers originated queries; guarded by mu.
	nextQID core.QueryID
}

// ctlMsg is one unit of control work for a node (see submit): a
// function to run, or a collector whose query is to be originated or
// retired.
type ctlMsg struct {
	f      func(*state)
	c      *collector
	retire bool
}

// state is a node's mutable state, guarded by Node.mu.
type state struct {
	neighbors []topology.NodeID
	ledger    *stats.Ledger
	seen      seenSet
	acts      actTable
	pending   map[core.QueryID]*collector
	searches  int
	// invited is the one peer this node's last invitation went to
	// (topology.None when none is outstanding).
	invited topology.NodeID
	// fwdBuf is handleQuery's forward target list, kept for its capacity.
	fwdBuf []topology.NodeID
}

// NewNode builds a node; Start launches its actor loop.
func NewNode(cfg Config) *Node {
	if cfg.Transport == nil || cfg.Store == nil {
		panic("live: Config requires Transport and Store")
	}
	if cfg.Neighbors <= 0 || cfg.TTL < 1 || cfg.TTL > maxTTL {
		panic(fmt.Sprintf("live: bad config %+v", cfg))
	}
	if cfg.Stats == nil {
		cfg.Stats = &NodeStats{}
	}
	return &Node{
		cfg: cfg,
		st: state{
			ledger:  stats.NewLedger(),
			seen:    newSeenSet(),
			pending: make(map[core.QueryID]*collector),
			invited: topology.None,
		},
		upd: core.SymmetricUpdater{
			Benefit:  stats.Cumulative{},
			Capacity: cfg.Neighbors,
			Invite:   core.AlwaysAccept,
			MaxSwaps: 1,
		},
		inbox:   make(chan Envelope, inboxCap),
		ctl:     make(chan ctlMsg, 64),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
}

// ID returns the node's identity.
func (n *Node) ID() topology.NodeID { return n.cfg.ID }

// Inbox returns the channel the node's ChanTransport delivers into
// (Attach wires it). Envelopes from other processes reach it the same
// way: Listen's deliver callback hands each frame to that fabric.
func (n *Node) Inbox() chan Envelope { return n.inbox }

// Start launches the actor loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.loop()
}

// Close drains the node before stopping: delivery of new envelopes
// ceases, every envelope already queued in the inbox (and every queued
// control function) is processed, and only then does the actor loop
// exit. Close returns once the loop is fully gone, and is idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.closing) })
	n.wake()
	n.wg.Wait()
}

// msgWake is the inbox token that makes the actor look at its control
// queue and its shutdown signals. It never travels between nodes.
const msgWake MsgType = 255

// wake nudges the actor without blocking. A full inbox needs no token:
// the actor is busy and looks after every burst anyway.
func (n *Node) wake() {
	select {
	case n.inbox <- Envelope{Type: msgWake}:
	default:
	}
}

// deliverNow handles env on the caller's goroutine if the node is idle,
// and reports whether it did. It is for messages that end at their
// receiver — an ack, a hit: at most they make the receiver send one ack
// in turn, which may be delivered the same way, TTL levels deep at most.
// It never waits for the lock, so a busy (or, in a cycle of senders, a
// circularly waiting) receiver just gets the message through its inbox;
// that it may then see the two kinds out of their sending order is what
// the hit count in the acks is for.
func (n *Node) deliverNow(env Envelope) bool {
	if !n.mu.TryLock() {
		return false
	}
	n.handle(&n.st, env)
	n.drainCtl()
	n.mu.Unlock()
	return true
}

// drainCtl runs what is queued for the node; the caller holds mu, and
// whoever holds mu calls it before letting go.
func (n *Node) drainCtl() {
	for {
		select {
		case m := <-n.ctl:
			n.control(&n.st, m)
		default:
			return
		}
	}
}

// loop is the actor: it works off the inbox and the control queue.
func (n *Node) loop() {
	defer n.wg.Done()
	st := &n.st
	for {
		// The one place the actor parks is a plain receive: parking in a
		// select over inbox, control queue and shutdown signals costs
		// several times as much per wake-up, and a flood that acks every
		// copy wakes its relays twice as often. Control work and shutdown
		// announce themselves through the inbox instead (msgWake), and are
		// looked at after every burst.
		env := <-n.inbox
		n.mu.Lock()
		n.handle(st, env)
		// Drain what else is already queued with cheap non-blocking
		// receives — one wake-up usually finds a burst. Bounded so a
		// Close takes effect under load.
	drain:
		for i := 0; i < 256; i++ {
			select {
			case env := <-n.inbox:
				n.handle(st, env)
			default:
				break drain
			}
		}
		n.drainCtl()
		n.mu.Unlock()
		select {
		case <-n.closing:
			// Drain mode: consume whatever is already queued, then
			// declare the node done so submit stops enqueueing.
			n.mu.Lock()
			defer n.mu.Unlock()
			for {
				select {
				case m := <-n.ctl:
					n.control(st, m)
				case env := <-n.inbox:
					n.handle(st, env)
				default:
					close(n.done)
					return
				}
			}
		default:
		}
	}
}

// submit gets m run under the node's lock; false means the node has
// shut down and m will not run. An idle node's work is done here and
// now, on the caller's goroutine, behind whatever was queued before it;
// a busy node gets m queued. With wake the actor is then roused for it;
// without, m waits until whoever holds the lock lets go or the node
// next has something to do — good enough for bookkeeping.
func (n *Node) submit(m ctlMsg, wake bool) bool {
	select {
	case <-n.done:
		return false
	default:
	}
	if n.mu.TryLock() {
		n.drainCtl()
		n.control(&n.st, m)
		n.mu.Unlock()
		return true
	}
	select {
	case n.ctl <- m:
	case <-n.done:
		return false
	}
	if wake {
		select {
		case n.inbox <- Envelope{Type: msgWake}:
		case <-n.done:
		}
	}
	return true
}

// control runs one ctlMsg; the caller holds mu.
func (n *Node) control(st *state, m ctlMsg) {
	switch {
	case m.f != nil:
		m.f(st)
	case m.retire:
		n.retire(st, m.c)
	default:
		n.originate(st, m.c)
	}
}

// do runs f under the node's lock and waits for it. It is the
// management path (wiring, snapshots, reconfiguration); queries travel
// as collectors and allocate nothing here.
func (n *Node) do(f func(*state)) {
	doneCh := make(chan struct{})
	if !n.submit(ctlMsg{f: func(st *state) { f(st); close(doneCh) }}, true) {
		return
	}
	select {
	case <-doneCh:
	case <-n.done:
	}
}

// Neighbors returns a snapshot of the current neighbor set.
func (n *Node) Neighbors() []topology.NodeID {
	var out []topology.NodeID
	n.do(func(st *state) {
		out = append(out, st.neighbors...)
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddNeighbor links both nodes (used for bootstrap wiring; the remote
// side learns of the edge by receiving our first query or invite, so
// for tests and demos call AddNeighbor on both ends).
func (n *Node) AddNeighbor(id topology.NodeID) {
	n.do(func(st *state) { addNeighbor(st, n.cfg.Neighbors, id) })
}

func addNeighbor(st *state, capacity int, id topology.NodeID) bool {
	for _, v := range st.neighbors {
		if v == id {
			return false
		}
	}
	if len(st.neighbors) >= capacity {
		return false
	}
	st.neighbors = append(st.neighbors, id)
	return true
}

func removeNeighbor(st *state, id topology.NodeID) bool {
	for i, v := range st.neighbors {
		if v == id {
			st.neighbors = append(st.neighbors[:i], st.neighbors[i+1:]...)
			return true
		}
	}
	return false
}

// Reconfigure forces one Algo 5 reconfiguration immediately.
func (n *Node) Reconfigure() {
	n.do(n.reconfigureLocked)
}

// reconfigureLocked runs the inviter's half of Algo 4 under the node's
// lock: invite the most beneficial known non-neighbor worth a slot. The
// neighbor list changes only when the invitee accepts (MsgInviteReply).
func (n *Node) reconfigureLocked(st *state) {
	peer, _, ok := n.upd.Invitation(st.ledger, n.cfg.ID, st.neighbors, nil)
	if ok && n.send(peer, Envelope{Type: MsgInvite, From: n.cfg.ID}) {
		st.invited = peer
	}
}

// evict drops id from the neighbor list and tells it to do the same.
// An accept id sent before it sees this eviction is stale, so an
// invitation still open to id no longer counts as asked.
func (n *Node) evict(st *state, id topology.NodeID) {
	if st.invited == id {
		st.invited = topology.None
	}
	removeNeighbor(st, id)
	n.send(id, Envelope{Type: MsgEvict, From: n.cfg.ID})
}

// handle processes one incoming envelope; the caller holds mu.
func (n *Node) handle(st *state, env Envelope) {
	switch env.Type {
	case MsgQuery:
		n.handleQuery(st, &env)
	case MsgAck:
		// Acks are matched by identity: the record the copy named, still
		// serving that query, still waiting for that very copy. A
		// duplicated or late ack, or one for a query this node has
		// retired, matches nothing and is dropped.
		if int(env.Slot) >= len(st.acts.recs) || env.Seq >= maxCopies {
			return
		}
		r := &st.acts.recs[env.Slot]
		if r.qid != env.QueryID || r.waiting&(1<<env.Seq) == 0 {
			return
		}
		r.waiting &^= 1 << env.Seq
		r.served += env.Served
		r.lost = r.lost || env.Lost
		if r.waiting == 0 {
			n.finish(st, env.Slot)
		}
	case MsgHit:
		n.cfg.Stats.HitsReceived.Inc()
		if c := st.pending[env.QueryID]; c != nil {
			select {
			case c.results <- SearchHit{Holder: env.From, Hops: int(env.Hops), Class: env.Class}:
			default:
			}
		}
	case MsgInvite:
		// The invitee's half of Algo 4: the link is made here, and
		// undone if the inviter cannot be told.
		evict, ok := n.upd.Accepting(st.ledger, n.cfg.ID, st.neighbors, env.From)
		if ok {
			if evict != topology.None {
				n.evict(st, evict)
			}
			addNeighbor(st, n.cfg.Neighbors, env.From)
			st.searches = 0 // reset the reconfiguration counter
		}
		if !n.send(env.From, Envelope{Type: MsgInviteReply, From: n.cfg.ID, Accept: ok}) && ok {
			removeNeighbor(st, env.From)
		}
	case MsgInviteReply:
		asked := env.From == st.invited
		if asked {
			st.invited = topology.None
		}
		if !env.Accept || slices.Contains(st.neighbors, env.From) {
			return
		}
		// The inviter links only on an accepted reply it asked for and can
		// still honour — the peer still earns a slot — and otherwise tells
		// the invitee to drop the link it made.
		if asked {
			others := func(p topology.NodeID) bool { return p != env.From }
			if peer, displace, ok := n.upd.Invitation(st.ledger, n.cfg.ID, st.neighbors, others); ok {
				if displace != topology.None {
					n.evict(st, displace)
				}
				addNeighbor(st, n.cfg.Neighbors, peer)
				return
			}
		}
		n.evict(st, env.From)
	case MsgEvict:
		removeNeighbor(st, env.From)
		// Process_Eviction: reset statistics about the evictor so we do
		// not immediately re-invite it.
		st.ledger.Reset(env.From)
	}
}

// send delivers without blocking the actor and reports whether the
// transport took the message; a refusal (full inbox, dead peer) keeps
// lossy-network semantics — the message is gone — but is counted, so a
// harness can tell a saturated run from a clean one.
func (n *Node) send(to topology.NodeID, env Envelope) bool {
	if err := n.cfg.Transport.Send(to, env); err != nil {
		n.cfg.Stats.SendFailed.Inc()
		return false
	}
	return true
}
