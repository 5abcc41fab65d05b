// Package core implements the paper's primary contribution: the
// general framework for searching in distributed data repositories,
// consisting of the three modules of Section 3 —
//
//   - search (Algo 1): propagate a request through the neighbor
//     network until it is satisfied or a terminating condition is met;
//   - exploration (Algo 2): metadata-only queries that discover
//     candidate neighbors and collect statistics;
//   - neighbor update (Algo 3 for asymmetric relations, Algo 4 for
//     symmetric relations): re-rank every encountered peer with an
//     application-defined benefit function and promote the best.
//
// The framework is engine-agnostic: all decision logic (forward
// policies, termination, benefit ranking, update planning, the
// invitation/eviction agreement) is expressed over small interfaces so
// the same code drives both the discrete-event simulator
// (internal/gnutella, internal/webcache, internal/peerolap) and the
// goroutine/TCP runtime (internal/live).
package core

import (
	"fmt"

	"repro/internal/digest"
	"repro/internal/topology"
)

// Key identifies one content item (song, page, OLAP chunk).
type Key = digest.Key

// QueryID identifies a query end-to-end; duplicate suppression ("each
// node keeps a list of recent messages", Algo 5 Process_Query) keys on
// it.
type QueryID uint64

// Query is a search request as it travels the network.
type Query struct {
	// ID is unique per issued query.
	ID QueryID
	// Key is the content item requested. The paper sets "the number of
	// songs that are requested by a query to one"; multi-item requests
	// are expressed as multiple queries.
	Key Key
	// Origin is the issuing repository.
	Origin topology.NodeID
	// TTL is the maximum number of hops ("all propagations terminate
	// after h hops"). TTL = 1 reaches direct neighbors only.
	TTL int
	// MaxResults terminates the search once this many results were
	// obtained; 0 means unlimited (extensive search).
	MaxResults int
	// ForwardWhenHit, when true, makes a node that satisfied the query
	// propagate it anyway ("in some systems (e.g., music sharing), a
	// node may still forward the request even if it can serve it, in
	// order to maximize the number of the results"). The paper's case
	// study sets this to false to limit messages.
	ForwardWhenHit bool
}

// Validate reports configuration errors in a query.
func (q *Query) Validate() error {
	if q.TTL < 0 {
		return fmt.Errorf("core: query %d has negative TTL %d", q.ID, q.TTL)
	}
	if q.MaxResults < 0 {
		return fmt.Errorf("core: query %d has negative MaxResults %d", q.ID, q.MaxResults)
	}
	if q.Origin < 0 {
		return fmt.Errorf("core: query %d has negative origin %d", q.ID, q.Origin)
	}
	return nil
}

// Result is one positive answer obtained by a search.
type Result struct {
	// Holder is the repository that served the request.
	Holder topology.NodeID
	// Hops is the forward-path length from the origin to the holder.
	Hops int
	// Delay is the simulated time (seconds) from query issue until this
	// result arrived back at the origin, accumulated over the forward
	// path and the reverse (reply) route.
	Delay float64
}

// Outcome aggregates everything a search produced; Send_Query in Algo 5
// consumes it to update statistics.
type Outcome struct {
	// Results lists every positive answer, in arrival order.
	Results []Result
	// Messages is the number of query propagations (one per edge
	// traversal, including duplicates that were discarded on arrival) —
	// the quantity plotted in Figures 1(b) and 2(b).
	Messages uint64
	// ReplyMessages counts result replies traveling the reverse route.
	ReplyMessages uint64
	// Visited is the number of distinct repositories that processed the
	// query (excluding the origin).
	Visited int
	// FirstResultDelay is the smallest Result.Delay. It is meaningful
	// iff Hit(): set-ness is len(Results) > 0, not a zero sentinel, so
	// a genuine zero-delay first result (ZeroDelay networks) is
	// distinguishable from "no result". The field stays 0 when no
	// results, keeping JSON output identical for the non-zero cases.
	FirstResultDelay float64
}

// Hit reports whether at least one result was found.
func (o *Outcome) Hit() bool { return len(o.Results) > 0 }

// Graph is the topology view a search engine walks. The simulator
// passes the global topology.Network; the live runtime passes each
// node's local view.
type Graph interface {
	// Out returns the outgoing neighbors of id. The slice must not be
	// mutated by the caller and may be invalidated by topology changes.
	Out(id topology.NodeID) []topology.NodeID
	// Online reports whether a node currently participates; off-line
	// nodes neither receive nor forward messages.
	Online(id topology.NodeID) bool
}

// Content answers local-repository membership: does node id hold key?
type Content interface {
	HasContent(id topology.NodeID, key Key) bool
}

// ContentFunc adapts a function to the Content interface.
type ContentFunc func(id topology.NodeID, key Key) bool

// HasContent implements Content.
func (f ContentFunc) HasContent(id topology.NodeID, key Key) bool { return f(id, key) }

// DelayFunc samples the one-way message delay between two adjacent
// nodes, in seconds. Implementations are typically closures over
// netsim.OneWayDelay and the per-node bandwidth classes.
type DelayFunc func(from, to topology.NodeID) float64

// ZeroDelay is a DelayFunc for tests and hop-count-only experiments.
func ZeroDelay(_, _ topology.NodeID) float64 { return 0 }
