package faults

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// LossyPolicy decorates a core.ForwardPolicy with deterministic
// per-link message loss: each target the inner policy selects is then
// dropped with probability Rate, drawn from the same per-link
// (seed, from, to, sequence) streams a faults.Transport uses. Inside
// the single-threaded cascade the k-th forward on a link always meets
// the same fate, so experiment cells built on it remain pure functions
// of their seed — the property the `faults` family's byte-identity
// checks enforce.
//
// It is safe for concurrent use, but the decision streams are only
// run-to-run reproducible when Select calls arrive in a deterministic
// order (sequential query replay, as the experiment runner does).
type LossyPolicy struct {
	Inner core.ForwardPolicy
	Rate  float64
	Seed  uint64

	mu    sync.Mutex
	links map[linkKey]*linkState
}

// NewLossyPolicy wraps inner with a drop rate in [0,1).
func NewLossyPolicy(inner core.ForwardPolicy, rate float64, seed uint64) *LossyPolicy {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("faults: lossy rate %v outside [0,1)", rate))
	}
	return &LossyPolicy{
		Inner: inner,
		Rate:  rate,
		Seed:  seed,
		links: make(map[linkKey]*linkState),
	}
}

// Select implements core.ForwardPolicy: it asks Inner for targets,
// then deletes each one its link's drop stream condemns, compacting
// in place so the survivors stay in Inner's order.
func (p *LossyPolicy) Select(q *core.Query, at, from topology.NodeID, out []topology.NodeID, led *stats.Ledger, dst []topology.NodeID) []topology.NodeID {
	sel := p.Inner.Select(q, at, from, out, led, dst)
	if p.Rate <= 0 || len(sel) == 0 {
		return sel
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	keep := sel[:0]
	for _, to := range sel {
		k := linkKey{at, to}
		ls := p.links[k]
		if ls == nil {
			ls = &linkState{seed: linkSeed(p.Seed, at, to)}
			p.links[k] = ls
		}
		ls.seq++
		if rng.Unit(rng.Mix64((ls.seed+ls.seq)^saltDrop)) < p.Rate {
			continue
		}
		keep = append(keep, to)
	}
	return keep
}

// Name implements core.ForwardPolicy.
func (p *LossyPolicy) Name() string {
	return fmt.Sprintf("lossy(%s,%g)", p.Inner.Name(), p.Rate)
}
