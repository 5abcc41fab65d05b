// Package stats implements the statistics collection and benefit
// functions of Section 3.4 of the paper.
//
// Every node keeps a Ledger with one record per peer it has encountered
// through search or exploration — neighbors and non-neighbors alike.
// Neighbor updates sort those records by a Benefit function and promote
// the best peers (Algos 3–5). The paper stresses that the benefit
// function is application specific: B/R for music sharing (bandwidth
// over result-list size), page count and latency for web proxies,
// query processing time for PeerOlap. All of those are provided here;
// new ones only need to implement the one-method Benefit interface.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Record accumulates what one node has observed about one peer.
type Record struct {
	// Benefit is the application-defined cumulative benefit (e.g. the
	// paper's Σ B/R, added per obtained result).
	Benefit float64
	// Hits counts queries this peer answered with a result.
	Hits uint64
	// Results counts individual results obtained from the peer.
	Results uint64
	// Replies counts all replies, including NOT-FOUND.
	Replies uint64
	// LatencySum accumulates observed first-byte latencies (seconds)
	// over Replies.
	LatencySum float64
	// BytesServed accumulates payload served (web-cache benefit input).
	BytesServed uint64
	// CostSaved accumulates saved processing cost (PeerOlap benefit
	// input, in abstract cost units).
	CostSaved float64
	// LastSeen is the simulated time of the latest observation.
	LastSeen float64
}

// MeanLatency returns LatencySum/Replies, or 0 when no replies.
func (r *Record) MeanLatency() float64 {
	if r.Replies == 0 {
		return 0
	}
	return r.LatencySum / float64(r.Replies)
}

// entry pairs a peer with its record. Records stay individually
// heap-allocated so the *Record returned by Get/Touch remains valid
// across later insertions (the entry slice may shift).
type entry struct {
	peer topology.NodeID
	rec  *Record
}

// Ledger holds the Records of one observing node, as a slice of
// entries sorted by peer ID. A node's ledger covers the peers it has
// encountered through search and exploration — tens of entries under
// the paper's parameters — so binary-searched slices beat a map on
// both lookup cost and allocation, and the sorted order makes Peers
// and Rank deterministic without a per-call sort of the key set.
type Ledger struct {
	entries []entry
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// find returns the position of peer and whether it is present; absent
// peers report the insertion index that keeps entries sorted.
func (l *Ledger) find(peer topology.NodeID) (int, bool) {
	lo, hi := 0, len(l.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.entries[mid].peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.entries) && l.entries[lo].peer == peer
}

// Get returns the record for peer, or nil if none exists.
func (l *Ledger) Get(peer topology.NodeID) *Record {
	if i, ok := l.find(peer); ok {
		return l.entries[i].rec
	}
	return nil
}

// Touch returns the record for peer, creating it if needed.
func (l *Ledger) Touch(peer topology.NodeID) *Record {
	i, ok := l.find(peer)
	if ok {
		return l.entries[i].rec
	}
	r := &Record{}
	l.entries = append(l.entries, entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = entry{peer: peer, rec: r}
	return r
}

// Reset erases everything known about peer. The paper's eviction rule
// (Algo 5, Process_Eviction) resets the evictor's statistics so the
// evicted node does not immediately re-invite it.
func (l *Ledger) Reset(peer topology.NodeID) {
	if i, ok := l.find(peer); ok {
		l.entries = append(l.entries[:i], l.entries[i+1:]...)
	}
}

// Decay multiplies every record's cumulative fields by factor in
// [0, 1]. Periodic decay lets the neighborhood track drifting access
// patterns ("exploration methods continuously update the neighborhoods
// in order to follow changes in access patterns").
func (l *Ledger) Decay(factor float64) {
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("stats: decay factor %v outside [0,1]", factor))
	}
	for _, e := range l.entries {
		e.rec.Benefit *= factor
		e.rec.LatencySum *= factor
		e.rec.CostSaved *= factor
	}
}

// Benefit scores a peer record; higher is better. Implementations must
// be pure functions of the record.
type Benefit interface {
	// Score returns the peer's benefit. r is never nil.
	Score(r *Record) float64
	// Name identifies the function in experiment output.
	Name() string
}

// Cumulative is the paper's Section 4 benefit: the externally
// accumulated Σ B/R stored in Record.Benefit.
type Cumulative struct{}

// Score implements Benefit.
func (Cumulative) Score(r *Record) float64 { return r.Benefit }

// Name implements Benefit.
func (Cumulative) Name() string { return "cumulative-B/R" }

// HitCount ranks peers purely by how many queries they answered.
type HitCount struct{}

// Score implements Benefit.
func (HitCount) Score(r *Record) float64 { return float64(r.Hits) }

// Name implements Benefit.
func (HitCount) Name() string { return "hit-count" }

// HitsPerLatency ranks by hits divided by mean observed latency — the
// web-proxy benefit the paper sketches ("the number of retrieved
// pages, combined with the end-to-end latency").
type HitsPerLatency struct{}

// Score implements Benefit.
func (HitsPerLatency) Score(r *Record) float64 {
	lat := r.MeanLatency()
	if lat <= 0 {
		return float64(r.Hits)
	}
	return float64(r.Hits) / lat
}

// Name implements Benefit.
func (HitsPerLatency) Name() string { return "hits-per-latency" }

// HitRatePerLatency ranks by the *fraction* of interactions that
// produced a result, discounted by mean latency. Unlike absolute hit
// counts, rates let a rarely-probed but well-matched peer (seen only
// through exploration) outrank a long-standing neighbor that rarely
// helps — without this, whoever is already a neighbor accumulates
// unbounded absolute counts and reconfiguration can never improve the
// list. Smoothing dampens single-observation flukes: a peer with one
// lucky reply must not outrank a consistently useful neighbor.
type HitRatePerLatency struct {
	// Smoothing is the Laplace prior weight added to the reply count
	// (0 = raw rate).
	Smoothing float64
}

// Score implements Benefit.
func (b HitRatePerLatency) Score(r *Record) float64 {
	if r.Replies == 0 {
		return 0
	}
	rate := float64(r.Hits) / (float64(r.Replies) + b.Smoothing)
	lat := r.MeanLatency()
	if lat <= 0 {
		return rate
	}
	return rate / lat
}

// Name implements Benefit.
func (HitRatePerLatency) Name() string { return "hit-rate-per-latency" }

// CostSaved ranks by accumulated saved processing cost — the PeerOlap
// benefit ("the dominating cost is the query processing time").
type CostSaved struct{}

// Score implements Benefit.
func (CostSaved) Score(r *Record) float64 { return r.CostSaved }

// Name implements Benefit.
func (CostSaved) Name() string { return "cost-saved" }

// Scored pairs a peer with its benefit score.
type Scored struct {
	Peer  topology.NodeID
	Score float64
}

// Rank returns all recorded peers sorted by descending score, ties
// broken by ascending NodeID for determinism. exclude, when non-nil,
// removes peers from consideration (e.g. the node itself or off-line
// peers).
func (l *Ledger) Rank(b Benefit, exclude func(topology.NodeID) bool) []Scored {
	out := make([]Scored, 0, len(l.entries))
	for _, e := range l.entries {
		if exclude != nil && exclude(e.peer) {
			continue
		}
		out = append(out, Scored{Peer: e.peer, Score: b.Score(e.rec)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// TopK returns the k best peers under b, after filtering with exclude.
func (l *Ledger) TopK(b Benefit, k int, exclude func(topology.NodeID) bool) []topology.NodeID {
	ranked := l.Rank(b, exclude)
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]topology.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].Peer
	}
	return out
}

// Least returns the lowest-scoring peer among candidates under b, ties
// broken by ascending NodeID. Peers with no record score 0 — matching
// the paper's rule that an evicted (reset) peer ranks at the bottom.
// It returns topology.None for an empty candidate list.
func (l *Ledger) Least(b Benefit, candidates []topology.NodeID) topology.NodeID {
	best := topology.None
	bestScore := 0.0
	for _, id := range candidates {
		score := 0.0
		if r := l.Get(id); r != nil {
			score = b.Score(r)
		}
		if best == topology.None || score < bestScore ||
			(score == bestScore && id < best) {
			best, bestScore = id, score
		}
	}
	return best
}
