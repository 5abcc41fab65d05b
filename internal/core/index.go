package core

import "repro/internal/topology"

// Index is the Local Indices technique of [10], which the paper lists
// as orthogonal to dynamic reconfiguration: "each node maintains an
// index over the data of all peers within r hops of itself, allowing
// each search to terminate after L−r hops". A visited node consults its
// index and answers *on behalf of* the indexed peers, so the flood can
// stop r hops short of the nominal depth with unchanged coverage.
//
// Implementations may be exact (metadata replicas, as in [10]) or
// approximate (Bloom digests from internal/digest; false positives then
// surface as holders that fail the subsequent fetch).
type Index interface {
	// Holders returns the peers within the index radius of node `at`
	// that (claim to) hold key — excluding `at` itself, whose local
	// content the cascade checks directly.
	Holders(at topology.NodeID, key Key) []topology.NodeID
	// Radius returns the hop radius the index covers; callers shorten
	// the search TTL by this much.
	Radius() int
}

// IndexFunc adapts a function to the Index interface with radius 1 (the
// common neighbor-index case).
type IndexFunc func(at topology.NodeID, key Key) []topology.NodeID

// Holders implements Index.
func (f IndexFunc) Holders(at topology.NodeID, key Key) []topology.NodeID { return f(at, key) }

// Radius implements Index.
func (IndexFunc) Radius() int { return 1 }

// indexResults emits results for the index holders visible from node
// `at`, deduplicating holders across the whole query (several visited
// nodes may index the same holder) via the scratch's epoch-stamped
// answered set. It reports whether any new result was produced.
// replyDelay is the reverse-route delay from `at` to the origin; an
// indexed answer costs one extra hop to reach the holder beyond the
// indexing node, which the delay hook charges.
func (c *Cascade) indexResults(q *Query, out *Outcome, s *Scratch,
	at topology.NodeID, hops int, now, replyDelay float64, delay DelayFunc) bool {
	found := false
	for _, h := range c.Index.Holders(at, q.Key) {
		if h == q.Origin {
			continue
		}
		slot := s.slot(h)
		if slot.idxEpoch == s.epoch {
			continue
		}
		slot.idxEpoch = s.epoch
		found = true
		total := now + replyDelay
		if h != at {
			total += delay(at, h) // indexing node pinged the holder
		}
		out.Results = append(out.Results, Result{Holder: h, Hops: hops + 1, Delay: total})
		if len(out.Results) == 1 || total < out.FirstResultDelay {
			out.FirstResultDelay = total
		}
		if q.MaxResults > 0 && len(out.Results) >= q.MaxResults {
			break
		}
	}
	return found
}
