package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Cascade executes the generic search of Algo 1 over a topology view:
// the query spreads from the origin along outgoing-neighbor edges,
// every repository processes it at most once (duplicate suppression by
// query ID, as in Algo 5's Process_Query), nodes holding the key reply
// to the origin over the reverse route, and propagation obeys the TTL
// and result-count terminating conditions.
//
// The cascade resolves the entire query within one simulator event:
// per-hop delays are sampled and accumulated analytically, which is
// exact as long as node state does not change during the (seconds-long)
// life of one query — see DESIGN.md, substitution table.
//
// All per-query state (visited set, reverse routes, frontier queue,
// result buffers) lives in a Scratch of epoch-stamped flat slices; see
// RunScratch for the pooled, allocation-free hot path.
type Cascade struct {
	// Graph supplies outgoing neighbors and liveness. Required.
	Graph Graph
	// Content answers local repository membership. Required.
	Content Content
	// Forward selects propagation targets. Required.
	Forward ForwardPolicy
	// Index, when non-nil, lets every visited node (and the origin)
	// answer on behalf of peers within Index.Radius() hops — the Local
	// Indices technique of [10]. Callers typically shorten the query
	// TTL by the radius.
	Index Index
	// Delay samples one-way hop delays; nil means ZeroDelay.
	Delay DelayFunc
	// Ledger, when non-nil, returns the statistics ledger of a
	// forwarding node (used by history-based forward policies).
	Ledger func(id topology.NodeID) *stats.Ledger
	// OnMessage, when non-nil, is invoked for every query propagation
	// (from -> to), including duplicates discarded on arrival.
	OnMessage func(from, to topology.NodeID)
	// Halt, when non-nil, is polled between cascade hops (once per
	// arrival processed) and before each deepening iteration; when it
	// returns true the search stops and returns the partial outcome
	// accumulated so far. External cancellation (context.Context) plugs
	// in here; pkg/search wires it for every call.
	Halt func() bool
}

// Run executes the search for query q and returns its outcome. It
// panics on an invalid query or an incomplete cascade configuration;
// both are programming errors, not runtime conditions.
//
// Run allocates fresh state per call and the caller owns the returned
// outcome indefinitely. Hot loops that issue many queries should hold a
// Scratch and call RunScratch instead.
func (c *Cascade) Run(q *Query) *Outcome {
	return c.RunScratch(q, nil)
}

// RunScratch is Run over caller-pooled working memory: the visited set,
// frontier queue and result buffer all come from s and are reused across
// cascades, so a steady-state query costs zero heap allocations beyond
// the Outcome header. The returned outcome (its Results slice) aliases
// s and is valid until the next RunScratch/ExploreScratch call with the
// same Scratch. A nil s runs with fresh state, exactly like Run.
//
// For identical inputs, RunScratch returns identical outcomes whether s
// is nil, fresh, or arbitrarily reused — pooling is invisible to the
// search semantics (asserted by TestScratchReuseByteIdentical).
func (c *Cascade) RunScratch(q *Query, s *Scratch) *Outcome {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	if c.Graph == nil || c.Content == nil || c.Forward == nil {
		panic("core: Cascade requires Graph, Content and Forward")
	}
	if s == nil {
		s = NewScratch(0)
	}
	delay := c.Delay
	noDelay := delay == nil
	if noDelay {
		delay = ZeroDelay // only for indexResults; the loops below skip it
	}
	ledger := func(topology.NodeID) *stats.Ledger { return nil }
	if c.Ledger != nil {
		ledger = c.Ledger
	}

	// Devirtualized fast paths: when the topology view is a frozen
	// *topology.CSR, neighbor lookup is an inlined slice expression and
	// the per-arrival Online call disappears (snapshots are fully
	// online by contract); when the policy is the common Flood, the
	// dynamic Select call and the intermediate fwd buffer are replaced
	// by a direct loop over the out-slice. Both paths send exactly the
	// messages the generic path would, in the same order.
	csr, fastGraph := c.Graph.(*topology.CSR)
	_, fastFlood := c.Forward.(Flood)

	s.begin()
	out := &Outcome{Results: s.results[:0]}
	defer func() {
		// Keep the (possibly grown) buffer for the next cascade, and
		// normalize an empty result list to nil so pooled and fresh
		// runs marshal identically.
		s.results = out.Results[:0]
		if len(out.Results) == 0 {
			out.Results = nil
		}
	}()

	origin := s.slot(q.Origin)
	origin.epoch = s.epoch
	origin.parent = topology.None

	send := func(from, to topology.NodeID, t float64, hops int32) {
		out.Messages++
		if c.OnMessage != nil {
			c.OnMessage(from, to)
		}
		if !noDelay {
			t += delay(from, to)
		}
		s.pushArrival(t, to, from, hops)
	}
	// forward propagates from node `at` (whose query copy came from
	// `from`) at time t over its out-neighbors.
	forward := func(at, from topology.NodeID, outs []topology.NodeID, t float64, hops int32) {
		if fastFlood {
			for _, n := range outs {
				if n == from || n == q.Origin {
					continue
				}
				send(at, n, t, hops)
			}
			return
		}
		s.fwd = c.Forward.Select(q, at, from, outs, ledger(at), s.fwd[:0])
		for _, n := range s.fwd {
			send(at, n, t, hops)
		}
	}

	// With a local index the origin answers from its own index first —
	// a zero-message lookup over its Radius()-hop neighborhood.
	originHit := false
	if c.Index != nil {
		originHit = c.indexResults(q, out, s, q.Origin, 0, 0, 0, delay)
	}

	// The origin forwards to its selected neighbors at t = 0
	// (Send_Query: "sends the query to its neighbors"). TTL counts
	// hops, so TTL = 0 means no propagation at all.
	if q.TTL >= 1 && !(originHit && !q.ForwardWhenHit) &&
		!(q.MaxResults > 0 && len(out.Results) >= q.MaxResults) {
		forward(q.Origin, topology.None, c.Graph.Out(q.Origin), 0, 1)
	}

	for {
		if c.Halt != nil && c.Halt() {
			break
		}
		a, ok := s.popArrival()
		if !ok {
			break
		}
		if q.MaxResults > 0 && len(out.Results) >= q.MaxResults {
			// Terminating condition met; remaining in-flight copies are
			// abandoned (they were already counted as messages).
			break
		}
		now := a.time
		if s.visited(a.node) {
			continue // Process_Query: "if the same message has been received before, return"
		}
		if !fastGraph && !c.Graph.Online(a.node) {
			continue // message reached a node that just went off-line
		}
		st := s.slot(a.node)
		st.epoch = s.epoch
		st.parent = a.from
		st.forwardDelay = now
		st.hops = a.hops
		out.Visited++

		hit := c.Content.HasContent(a.node, q.Key)
		if hit && c.Index != nil && s.visits[a.node].idxEpoch == s.epoch {
			hit = false // already answered on this node's behalf upstream
		}
		if hit || c.Index != nil {
			// Reply travels the reverse route (Gnutella semantics);
			// each reverse hop samples a fresh delay. With no delay
			// model the accumulation walk is pure zeros — skip it.
			replyDelay := 0.0
			if !noDelay {
				node := a.node
				for node != q.Origin {
					parent := s.visits[node].parent
					replyDelay += delay(node, parent)
					node = parent
				}
			}
			if hit {
				// The reverse route is the parent chain, one hop per
				// forward hop: a node's parent arrived one hop earlier.
				out.ReplyMessages += uint64(a.hops)
				if c.Index != nil {
					s.visits[a.node].idxEpoch = s.epoch
				}
				total := now + replyDelay
				out.Results = append(out.Results, Result{Holder: a.node, Hops: int(a.hops), Delay: total})
				// First appended result opens the minimum; set-ness is
				// len(Results) > 0, never a zero sentinel — a genuine
				// zero-delay first result survives later, slower ones.
				if len(out.Results) == 1 || total < out.FirstResultDelay {
					out.FirstResultDelay = total
				}
			}
			// Answer for indexed peers beyond this node.
			if c.Index != nil &&
				!(q.MaxResults > 0 && len(out.Results) >= q.MaxResults) {
				if c.indexResults(q, out, s, a.node, int(a.hops), now, replyDelay, delay) {
					hit = true
				}
			}
		}

		// Propagation: a serving node stops unless ForwardWhenHit; TTL
		// bounds the hop count.
		if (hit && !q.ForwardWhenHit) || int(a.hops) >= q.TTL {
			continue
		}
		var outs []topology.NodeID
		if fastGraph {
			outs = csr.Out(a.node)
		} else {
			outs = c.Graph.Out(a.node)
		}
		forward(a.node, a.from, outs, now, a.hops+1)
	}
	return out
}

// IterativeDeepening implements technique (i) of [10] as a search
// driver: successive cascades with growing TTL until the query is
// satisfied or the maximum depth is reached. Message counts accumulate
// across iterations (re-propagation is the technique's cost); the
// returned outcome is the final iteration's results with the summed
// overhead.
//
// The paper notes the technique is orthogonal to dynamic
// reconfiguration and can be combined with it — the ablation benchmark
// does exactly that.
type IterativeDeepening struct {
	// Depths is the TTL schedule, strictly increasing (e.g. 1, 2, 4).
	Depths []int
	// CycleTimeout is how long the initiator waits before declaring a
	// cycle unsatisfied and deepening (seconds). Each failed cycle adds
	// this to the first-result delay of the final outcome.
	CycleTimeout float64
}

// Run executes the deepening schedule for q over cascade c. The TTL in
// q is ignored; Depths governs.
func (d IterativeDeepening) Run(c *Cascade, q *Query) *Outcome {
	return d.RunScratch(c, q, nil)
}

// RunScratch is Run over caller-pooled working memory; see
// Cascade.RunScratch for the aliasing contract. Only the satisfied
// (final) iteration's results are retained, so intermediate cascades
// reusing s never clobber returned data.
func (d IterativeDeepening) RunScratch(c *Cascade, q *Query, s *Scratch) *Outcome {
	if len(d.Depths) == 0 {
		panic("core: IterativeDeepening needs at least one depth")
	}
	prev := 0
	var total Outcome
	waited := 0.0
	for _, depth := range d.Depths {
		if depth <= prev {
			panic(fmt.Sprintf("core: deepening schedule not increasing at depth %d", depth))
		}
		prev = depth
		if c.Halt != nil && c.Halt() {
			break // halted mid-schedule: do not deepen into a canceled run
		}
		qq := *q
		qq.TTL = depth
		o := c.RunScratch(&qq, s)
		total.Messages += o.Messages
		total.ReplyMessages += o.ReplyMessages
		if o.Visited > total.Visited {
			total.Visited = o.Visited
		}
		if o.Hit() {
			total.Results = o.Results
			total.FirstResultDelay = waited + o.FirstResultDelay
			break
		}
		waited += d.CycleTimeout
	}
	return &total
}
