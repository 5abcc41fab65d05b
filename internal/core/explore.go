package core

import (
	"repro/internal/stats"
	"repro/internal/topology"
)

// Exploration implements Algo 2: a metadata-only query about a
// collection of data items that propagates like a search but fetches
// nothing — visited repositories "return statistics and summarized
// information", and the initiator uses the findings to update the
// ledger from which neighbor updates are computed.
//
// Unlike a search, an exploration never stops at serving nodes: its
// purpose is to census the neighborhood out to the TTL.
type Exploration struct {
	// Keys is the set of data items to query for (Algo 2: "select set
	// of data items to query for").
	Keys []Key
	// Origin is the initiating repository.
	Origin topology.NodeID
	// TTL bounds propagation depth.
	TTL int
}

// Finding is one visited repository's report.
type Finding struct {
	// Node is the reporting repository.
	Node topology.NodeID
	// Held lists which of the probed keys the repository holds.
	Held []Key
	// Hops is the forward-path distance from the initiator.
	Hops int
	// Delay is when the report arrived back at the initiator (seconds
	// after the exploration started), over the reverse route.
	Delay float64
}

// ExploreOutcome aggregates an exploration round.
type ExploreOutcome struct {
	// Findings holds one entry per visited repository, in arrival
	// order, including repositories that hold none of the keys (their
	// statistics still matter: a NOT-FOUND reply is information).
	Findings []Finding
	// Messages counts exploration propagations (metered as MsgExplore
	// by callers).
	Messages uint64
	// ReplyMessages counts report hops on reverse routes.
	ReplyMessages uint64
}

// Holders returns the nodes that reported holding key.
func (o *ExploreOutcome) Holders(key Key) []topology.NodeID {
	var out []topology.NodeID
	for _, f := range o.Findings {
		for _, k := range f.Held {
			if k == key {
				out = append(out, f.Node)
				break
			}
		}
	}
	return out
}

// Explore runs one exploration round over the cascade's topology view.
// The cascade's Forward policy selects propagation targets exactly as
// in search; OnMessage metering is the caller's (exploration traffic is
// usually metered as netsim.MsgExplore). The caller owns the returned
// outcome; hot loops should use ExploreScratch.
func (c *Cascade) Explore(x *Exploration) *ExploreOutcome {
	return c.ExploreScratch(x, nil)
}

// ExploreScratch is Explore over caller-pooled working memory. The
// returned outcome (its Findings and their Held slices) aliases s and
// is valid until the next RunScratch/ExploreScratch call with the same
// Scratch. A nil s runs with fresh state, exactly like Explore.
func (c *Cascade) ExploreScratch(x *Exploration, s *Scratch) *ExploreOutcome {
	if c.Graph == nil || c.Content == nil || c.Forward == nil {
		panic("core: Cascade requires Graph, Content and Forward")
	}
	if x.TTL < 0 {
		panic("core: negative exploration TTL")
	}
	if s == nil {
		s = NewScratch(0)
	}
	delay := c.Delay
	if delay == nil {
		delay = ZeroDelay
	}
	ledger := func(topology.NodeID) *stats.Ledger { return nil }
	if c.Ledger != nil {
		ledger = c.Ledger
	}
	// Exploration reuses the query-shaped forward policies; the pseudo
	// query carries no key semantics (policies only inspect Origin).
	pseudo := &Query{Origin: x.Origin, TTL: x.TTL}

	s.begin()
	out := &ExploreOutcome{Findings: s.findings[:0]}
	held := s.heldBuf[:0]
	defer func() {
		// As in RunScratch: retain buffers, normalize empty to nil.
		s.findings = out.Findings[:0]
		s.heldBuf = held[:0]
		if len(out.Findings) == 0 {
			out.Findings = nil
		}
	}()

	origin := s.slot(x.Origin)
	origin.epoch = s.epoch
	origin.parent = topology.None

	send := func(from, to topology.NodeID, t float64, hops int32) {
		out.Messages++
		if c.OnMessage != nil {
			c.OnMessage(from, to)
		}
		s.pushArrival(t+delay(from, to), to, from, hops)
	}

	if x.TTL >= 1 {
		s.fwd = c.Forward.Select(pseudo, x.Origin, topology.None, c.Graph.Out(x.Origin), ledger(x.Origin), s.fwd[:0])
		for _, n := range s.fwd {
			send(x.Origin, n, 0, 1)
		}
	}

	for {
		if c.Halt != nil && c.Halt() {
			break
		}
		a, ok := s.popArrival()
		if !ok {
			break
		}
		now := a.time
		if s.visited(a.node) {
			continue
		}
		if !c.Graph.Online(a.node) {
			continue
		}
		st := s.slot(a.node)
		st.epoch = s.epoch
		st.parent = a.from
		st.forwardDelay = now
		st.hops = a.hops

		// Collect the held subset into the pooled backing; each finding
		// keeps its own sub-slice (growth reallocates the backing, which
		// leaves earlier findings pointing at the old array — still
		// valid, just no longer contiguous with later ones).
		start := len(held)
		for _, k := range x.Keys {
			if c.Content.HasContent(a.node, k) {
				held = append(held, k)
			}
		}
		var heldView []Key
		if len(held) > start {
			heldView = held[start:len(held):len(held)]
		}

		// The report travels the reverse route regardless of outcome.
		replyDelay := 0.0
		node := a.node
		for node != x.Origin {
			parent := s.visits[node].parent
			replyDelay += delay(node, parent)
			out.ReplyMessages++
			node = parent
		}
		out.Findings = append(out.Findings, Finding{
			Node:  a.node,
			Held:  heldView,
			Hops:  int(a.hops),
			Delay: now + replyDelay,
		})

		if int(a.hops) >= x.TTL {
			continue
		}
		s.fwd = c.Forward.Select(pseudo, a.node, a.from, c.Graph.Out(a.node), ledger(a.node), s.fwd[:0])
		for _, n := range s.fwd {
			send(a.node, n, now, a.hops+1)
		}
	}
	return out
}

// RecordFindings folds an exploration outcome into the initiator's
// ledger ("obtain results and update statistics"): every reporting node
// gets a reply observation; nodes holding probed keys get hit/result
// credit weighted by weight (the application's benefit increment, e.g.
// the bandwidth weight of the reporting link).
func RecordFindings(led *stats.Ledger, o *ExploreOutcome, now float64, weight func(topology.NodeID) float64) {
	for _, f := range o.Findings {
		r := led.Touch(f.Node)
		r.Replies++
		r.LatencySum += f.Delay
		r.LastSeen = now
		if len(f.Held) > 0 {
			r.Hits++
			r.Results += uint64(len(f.Held))
			if weight != nil {
				r.Benefit += weight(f.Node) * float64(len(f.Held))
			}
		}
	}
}
