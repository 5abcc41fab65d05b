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

// ExploreScratch runs one exploration round over the cascade's
// topology view. It is the search walk of RunScratch with every visited
// repository answering: the cascade's Forward policy selects
// propagation targets exactly as in search, and each reply carries the
// subset of x.Keys the repository holds. OnMessage metering is the
// caller's (exploration traffic is usually metered as
// netsim.MsgExplore). The returned outcome (its Findings and their Held
// slices) aliases s and is valid until the next RunScratch/
// ExploreScratch call with the same Scratch. A nil s runs with fresh
// state, and the caller owns that outcome indefinitely.
func (c *Cascade) ExploreScratch(x *Exploration, s *Scratch) *ExploreOutcome {
	if c.Content == nil {
		panic("core: Cascade requires Graph, Content and Forward")
	}
	if s == nil {
		s = NewScratch(0)
	}
	// Every node answers and keeps forwarding; the pseudo query carries
	// no key semantics (policies only inspect Origin).
	walk := *c
	walk.Content, walk.Index = answerAll{}, nil
	res := walk.RunScratch(&Query{Origin: x.Origin, TTL: x.TTL, ForwardWhenHit: true}, s)

	out := &ExploreOutcome{Findings: s.findings[:0], Messages: res.Messages, ReplyMessages: res.ReplyMessages}
	// Each finding keeps its own sub-slice of the pooled backing (growth
	// reallocates the backing, which leaves earlier findings pointing at
	// the old array — still valid, just no longer contiguous).
	held := s.heldBuf[:0]
	for _, r := range res.Results {
		start := len(held)
		for _, k := range x.Keys {
			if c.Content.HasContent(r.Holder, k) {
				held = append(held, k)
			}
		}
		var heldView []Key
		if len(held) > start {
			heldView = held[start:len(held):len(held)]
		}
		out.Findings = append(out.Findings, Finding{Node: r.Holder, Held: heldView, Hops: r.Hops, Delay: r.Delay})
	}
	// As in RunScratch: retain buffers, normalize empty to nil.
	s.findings, s.heldBuf = out.Findings[:0], held[:0]
	if len(out.Findings) == 0 {
		out.Findings = nil
	}
	return out
}

// answerAll is the content of an exploration walk: every repository
// replies, whatever it holds.
type answerAll struct{}

// HasContent implements Content.
func (answerAll) HasContent(topology.NodeID, Key) bool { return true }

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
