package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TrialTracker implements Section 3.4's solution (a) to the
// cold-invitation problem: when an invited node has no statistics about
// the inviter, it establishes "a temporary relationship in order to
// start exchanging search and exploration messages and gather
// statistics; the relationship will either become permanent or will
// terminate after a certain time threshold".
//
// The tracker is engine-agnostic: the host runtime calls Begin when an
// invitation is accepted provisionally and Expire periodically with the
// current time. A trial converts to permanent silently (the edge simply
// stays) when the guest proved beneficial; otherwise the host evicts
// the guest through the normal eviction path (statistics reset
// included).
type TrialTracker struct {
	// Threshold is the probation length in seconds.
	Threshold float64
	// Benefit scores the guest at expiry.
	Benefit stats.Benefit
	// Updater performs the eviction of failed guests.
	Updater *SymmetricUpdater

	trials []trial
}

type trial struct {
	host, guest topology.NodeID
	deadline    float64
}

// Begin registers a provisional relationship: host accepted guest's
// invitation without statistics. Duplicate registrations for a live
// (host, guest) pair are ignored.
func (t *TrialTracker) Begin(now float64, host, guest topology.NodeID) {
	if t.Threshold <= 0 {
		panic(fmt.Sprintf("core: TrialTracker threshold %v", t.Threshold))
	}
	for _, tr := range t.trials {
		if tr.host == host && tr.guest == guest {
			return
		}
	}
	t.trials = append(t.trials, trial{host: host, guest: guest, deadline: now + t.Threshold})
}

// Expire resolves every trial whose deadline passed: the guest stays if
// its benefit score at the host outranks zero AND it is still a
// neighbor; otherwise the host evicts it. It returns how many trials
// became permanent and how many ended in eviction.
func (t *TrialTracker) Expire(env SymmetricEnv, now float64) (kept, evicted int) {
	if t.Updater == nil || t.Benefit == nil {
		panic("core: TrialTracker requires Updater and Benefit")
	}
	remaining := t.trials[:0]
	for _, tr := range t.trials {
		if tr.deadline > now {
			remaining = append(remaining, tr)
			continue
		}
		if !env.Net().Node(tr.host).Out.Contains(tr.guest) {
			// The relationship already dissolved through other churn;
			// nothing to resolve.
			continue
		}
		score := 0.0
		if r := env.Ledger(tr.host).Get(tr.guest); r != nil {
			score = t.Benefit.Score(r)
		}
		if score > 0 {
			kept++
			continue // permanent: the edge stays, the trial is forgotten
		}
		t.Updater.evict(env, tr.host, tr.guest)
		evicted++
	}
	t.trials = remaining
	return kept, evicted
}

// Drop abandons all trials involving a node (it went off-line).
func (t *TrialTracker) Drop(node topology.NodeID) {
	remaining := t.trials[:0]
	for _, tr := range t.trials {
		if tr.host != node && tr.guest != node {
			remaining = append(remaining, tr)
		}
	}
	t.trials = remaining
}
