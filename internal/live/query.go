package live

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// QueryOpts parameterizes one originated search. The zero value of
// every field defers to the node's configuration.
type QueryOpts struct {
	// Key is the content item requested.
	Key core.Key
	// TTL overrides Config.TTL for this query when positive.
	TTL int
	// Timeout is the hit-collection window. Required.
	Timeout time.Duration
	// MaxHits, when positive, ends collection early once that many
	// hits arrived — a REST frontend answering "is it out there?"
	// returns at the first hit instead of at the end of the flood.
	MaxHits int
	// Settle, with MaxHits, holds the call (not the collection) until
	// the flood has ended or the window closed. A caller that issues
	// queries back to back then has one flood in the fabric at a time
	// instead of stacking the unfinished tails of all its earlier ones
	// into the inboxes.
	Settle bool
	// Cancel, when non-nil, ends hit collection early when it becomes
	// receivable — the hook a serving frontend uses to stop a query
	// whose request went away. Hits already collected are returned;
	// QueryInfo.Stopped records the early end.
	Cancel <-chan struct{}
}

// QueryInfo describes how a query's hit collection ended — the signal
// a serving layer needs to mark a response as degraded rather than
// silently partial. Exactly one of Complete, Expired and Stopped is
// set, or none when MaxHits ended collection first.
type QueryInfo struct {
	// Fanout is how many first-hop copies the origin sent. Zero (with
	// no local hit) means the query never left this node — an isolated
	// or fully-partitioned origin; -1 that collection was stopped before
	// the node had got round to sending it.
	Fanout int
	// Complete reports that the flood terminated: every copy sent was
	// acknowledged and every hit the acks announced was collected. With
	// Lost unset the answer is exact — a miss means no node within TTL
	// hops holds the key.
	Complete bool
	// Lost reports that at least one copy of the flood could not be
	// handed to the transport (full inbox, dead peer), so the nodes
	// behind it were not searched. Only meaningful with Complete.
	Lost bool
	// Expired reports that the collection window closed before the
	// flood was known to be finished: an ack, or a message it was
	// waiting for, was lost on the way.
	Expired bool
	// Stopped reports that collection ended early: Cancel fired or the
	// node shut down before the window closed.
	Stopped bool
}

// collector is the rendezvous between one QueryInfo call and the node:
// the request travels in it to the node (submit), hits and the
// completion mark travel back through results, and after collection it
// goes to the node once more to be retired (control work runs in the
// order it was submitted, so never before the query was originated).
// Collectors are pooled, so a query allocates nothing but its hit slice.
type collector struct {
	// results carries hits and the completion mark. It is written only
	// under the node's lock, and only while the collector is pending —
	// once retire has dropped the pending entry and drained stragglers
	// nothing can touch a pooled one. 256 is how many hits of one flood
	// can wait for a slow caller before further ones are dropped.
	results chan SearchHit
	timer   *time.Timer

	// Request, written by the caller before it hands the collector over.
	key core.Key
	ttl uint8
	// Set by originate, for retire; fanout is also the caller's, who may
	// stop waiting before a busy node got that far.
	qid    core.QueryID
	act    uint16 // the origin's activation record
	fanout atomic.Int32
	// hits is set by the caller for the second trip.
	hits []SearchHit
}

var collectorPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &collector{
		results: make(chan SearchHit, 256),
		timer:   t,
	}
}}

// completionMark is the in-band end of a flood on a results channel:
// no holder, Hops carrying the number of hits the acks announced, and a
// non-zero Class when part of the flood was lost. It may get there
// before some of those hits; the count is how the collector knows.
func completionMark(served uint32, lost bool) SearchHit {
	m := SearchHit{Holder: topology.None, Hops: int(served)}
	if lost {
		m.Class = 1
	}
	return m
}

// QueryInfo originates one search (see QueryOpts) and collects hits
// until the flood terminates or, failing that, until the window closes;
// the QueryInfo it returns says how collection ended (first-hop
// fan-out, completion, loss, early stop). It implements Send_Query of
// Algo 5: statistics update with benefit B/R over the collected
// results, then a reconfiguration check. Any number of goroutines may
// originate queries on one node concurrently.
func (n *Node) QueryInfo(opts QueryOpts) ([]SearchHit, QueryInfo) {
	c := collectorPool.Get().(*collector)
	c.key, c.hits = opts.Key, nil
	c.ttl = n.ttl(opts.TTL)
	c.fanout.Store(-1)
	// Two trips to the node frame the collection; the caller does not
	// wait for a busy node to take the first, it goes straight to
	// collecting. If the node shuts down while it holds the collector, the
	// collector is simply not reused.
	if !n.submit(ctlMsg{c: c}, true) {
		collectorPool.Put(c)
		return nil, QueryInfo{Stopped: true}
	}
	c.timer.Reset(opts.Timeout)
	var info QueryInfo
	var hits []SearchHit
	announced := -1    // hits the flood served, once the completion mark is in
	satisfied := false // MaxHits reached; only Settle keeps the call going then
collect:
	for {
		select {
		case h := <-c.results:
			switch {
			case h.Holder == topology.None:
				announced, info.Lost = h.Hops, h.Class != 0
			case satisfied:
			case !holds(hits, h.Holder): // a holder answers once; a second copy is a wire duplicate
				hits = append(hits, h)
			}
			if !satisfied && opts.MaxHits > 0 && len(hits) >= opts.MaxHits {
				if !opts.Settle {
					break collect
				}
				satisfied = true
			}
			// The flood is over once the mark is in and every hit it
			// announced has been collected: on a transport that does not
			// order a hit before the ack chain, the mark can overtake.
			if announced >= 0 && (satisfied || len(hits) >= announced) {
				info.Complete = true
				n.cfg.Stats.QueriesComplete.Inc()
				break collect
			}
		case <-c.timer.C:
			if !satisfied {
				info.Expired = true
				n.cfg.Stats.QueriesWindowFallback.Inc()
			}
			break collect
		case <-opts.Cancel:
			info.Stopped = !satisfied
			break collect
		case <-n.done:
			info.Stopped = !satisfied
			break collect
		}
	}
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}

	info.Fanout = int(c.fanout.Load())

	// Post-collection bookkeeping is asynchronous: the caller has its
	// hits and need not wait for the ledger update.
	c.hits = hits
	n.submit(ctlMsg{c: c, retire: true}, false)
	return hits, info
}

// holds reports whether hits already has an answer from holder.
func holds(hits []SearchHit, holder topology.NodeID) bool {
	for i := range hits {
		if hits[i].Holder == holder {
			return true
		}
	}
	return false
}

// originate starts c's query (the caller holds the node's lock): the
// origin is the root activation of the flood, with the collector as its
// parent.
func (n *Node) originate(st *state, c *collector) {
	n.nextQID++
	qid := core.QueryID(uint64(n.cfg.ID)<<32) | n.nextQID
	e, _ := st.seen.visit(qid) // hops 0: no copy coming back can improve on it
	e.from = topology.None
	st.pending[qid] = c
	e.act = st.acts.alloc(qid)
	st.acts.recs[e.act].from = topology.None
	c.qid, c.act = qid, e.act
	// The origin floods to every neighbor: none is a sender or the origin.
	c.fanout.Store(int32(len(st.neighbors)))
	n.fanout(st, e, st.neighbors, Envelope{
		Type: MsgQuery, From: n.cfg.ID,
		QueryID: qid, Key: c.key, Origin: n.cfg.ID,
		TTL: c.ttl, Hops: 1, Slot: e.act,
	})
}

// retire ends c's query (the caller holds the node's lock): it drops
// the pending entry and the origin's activation record (acks still on
// their way then match nothing and are dropped), drains stragglers that
// raced the end of collection, and only then recycles the collector.
func (n *Node) retire(st *state, c *collector) {
	delete(st.pending, c.qid)
	if r := &st.acts.recs[c.act]; r.qid == c.qid && r.waiting != 0 {
		st.acts.release(c.act)
	}
drain:
	for {
		select {
		case <-c.results:
		default:
			break drain
		}
	}
	hits := c.hits
	c.hits = nil
	collectorPool.Put(c)
	r := float64(len(hits))
	for _, h := range hits {
		rec := st.ledger.Touch(h.Holder)
		rec.Hits++
		rec.Results++
		rec.Replies++
		rec.Benefit += h.Class.Weight() / r
	}
	st.searches++
	if n.cfg.ReconfigThreshold > 0 && st.searches >= n.cfg.ReconfigThreshold {
		st.searches = 0
		n.reconfigureLocked(st)
	}
}

// ttl resolves a per-query TTL override against the configured depth.
func (n *Node) ttl(override int) uint8 {
	switch {
	case override <= 0:
		return uint8(n.cfg.TTL)
	case override > maxTTL:
		return maxTTL
	}
	return uint8(override)
}
