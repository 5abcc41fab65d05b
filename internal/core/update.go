package core

import (
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the neighbor-update module of Section 3.4:
// Algo 3 for (pure) asymmetric relations, where a node reconfigures
// unilaterally, and Algo 4 for symmetric relations, where changes
// require the invitation/eviction agreement. The Gnutella case study's
// Algo 5 is Algo 4 with the "invited node always accepts" policy and a
// one-swap-per-reconfiguration limit.

// PlanAsymmetric computes the new outgoing list for a node under
// Algo 3: rank every peer in the ledger by the benefit function, take
// the top capacity eligible ones. current is used to fill remaining
// slots (in current order) when the ledger knows fewer than capacity
// eligible peers, so a node never discards neighbors for lack of
// information.
func PlanAsymmetric(led *stats.Ledger, b stats.Benefit, capacity int, current []topology.NodeID, eligible func(topology.NodeID) bool) []topology.NodeID {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: PlanAsymmetric with capacity %d", capacity))
	}
	exclude := func(id topology.NodeID) bool { return eligible != nil && !eligible(id) }
	desired := led.TopK(b, capacity, exclude)
	if len(desired) < capacity {
		have := make(map[topology.NodeID]bool, len(desired))
		for _, id := range desired {
			have[id] = true
		}
		for _, id := range current {
			if len(desired) >= capacity {
				break
			}
			if !have[id] && (eligible == nil || eligible(id)) {
				desired = append(desired, id)
				have[id] = true
			}
		}
	}
	return desired
}

// ApplyOutList reconciles node id's outgoing list with desired on an
// asymmetric network: evict neighbors not in desired, then connect the
// missing ones. It returns what actually changed (a connect can fail if
// the target's incoming list is capped).
func ApplyOutList(net *topology.Network, id topology.NodeID, desired []topology.NodeID) (added, removed []topology.NodeID) {
	want := make(map[topology.NodeID]bool, len(desired))
	for _, d := range desired {
		want[d] = true
	}
	for _, cur := range net.Node(id).Out.Snapshot() {
		if !want[cur] {
			if net.Disconnect(id, cur) {
				removed = append(removed, cur)
			}
		}
	}
	for _, d := range desired {
		if d == id || net.Node(id).Out.Contains(d) {
			continue
		}
		if net.Connect(id, d) {
			added = append(added, d)
		}
	}
	return added, removed
}

// InvitePolicy selects how an invited node decides (Section 3.4
// distinguishes the two cases).
type InvitePolicy uint8

const (
	// AlwaysAccept is case (i): the invited node always accepts,
	// evicting its least beneficial neighbor when full — the Gnutella
	// case-study choice (Algo 5 Process_Invitation).
	AlwaysAccept InvitePolicy = iota
	// BenefitBased is case (ii): the invited node accepts only when its
	// incoming list has room or the inviter is more beneficial than at
	// least one current incoming neighbor.
	BenefitBased
)

// String implements fmt.Stringer.
func (p InvitePolicy) String() string {
	switch p {
	case AlwaysAccept:
		return "always-accept"
	case BenefitBased:
		return "benefit-based"
	default:
		return fmt.Sprintf("InvitePolicy(%d)", uint8(p))
	}
}

// SymmetricEnv is what the symmetric updater needs from its runtime.
// The simulator implements it over the global network; the live runtime
// implements it over real message exchange.
type SymmetricEnv interface {
	// Net returns the (symmetric-regime) network being reconfigured.
	Net() *topology.Network
	// Ledger returns a node's statistics ledger.
	Ledger(id topology.NodeID) *stats.Ledger
	// Online reports node liveness; off-line nodes are never invited
	// and never accept.
	Online(id topology.NodeID) bool
	// Control meters one control message (invite, eviction, reply).
	Control(kind netsim.MessageKind, from, to topology.NodeID)
	// ResetCounter resets a node's reconfiguration counter (Algo 5:
	// accepting an invitation resets the invited node's counter "to
	// avoid updating the neighborhood in the near future, which could
	// trigger cascading updates").
	ResetCounter(id topology.NodeID)
}

// SymmetricUpdater executes Algo 4 reconfigurations.
type SymmetricUpdater struct {
	// Benefit ranks peers. Required.
	Benefit stats.Benefit
	// Capacity is the maximum number of neighbors (the paper uses 4).
	Capacity int
	// Invite selects the invited node's decision rule.
	Invite InvitePolicy
	// MaxSwaps bounds how many new neighbors one reconfiguration may
	// invite; 0 means unlimited. The paper's case study exchanges one
	// neighbor per reconfiguration ("only one neighbor is exchanged
	// during each reconfiguration").
	MaxSwaps int
}

// ReconfigReport describes what one reconfiguration did.
type ReconfigReport struct {
	// Invited lists invitation targets, in rank order.
	Invited []topology.NodeID
	// Accepted lists invitations that were accepted (edges created).
	Accepted []topology.NodeID
	// Evicted lists neighbors the reconfiguring node evicted.
	Evicted []topology.NodeID
}

// Changed reports whether the reconfiguration modified any edge.
func (r *ReconfigReport) Changed() bool {
	return len(r.Accepted) > 0 || len(r.Evicted) > 0
}

// Reconfigure runs Algo 4 (equivalently Algo 5's Reconfigure) for node
// id over a network the runtime sees whole: invite the most beneficial
// eligible non-neighbors (Invitation), let each invitee decide
// (Accepting), make room on both sides of every accepted invitation,
// and reset the node's reconfiguration counter.
func (u *SymmetricUpdater) Reconfigure(env SymmetricEnv, id topology.NodeID) ReconfigReport {
	if u.Capacity <= 0 {
		panic(fmt.Sprintf("core: SymmetricUpdater capacity %d", u.Capacity))
	}
	var rep ReconfigReport
	net := env.Net()
	led := env.Ledger(id)
	// Off-line peers are never invited, and a peer is invited at most
	// once per reconfiguration.
	skip := func(p topology.NodeID) bool { return !env.Online(p) || slices.Contains(rep.Invited, p) }
	swaps := 0
	for (u.MaxSwaps == 0 || swaps < u.MaxSwaps) && len(rep.Invited) < u.Capacity {
		peer, displace, ok := u.Invitation(led, id, net.Out(id), skip)
		if !ok {
			break
		}
		rep.Invited = append(rep.Invited, peer)
		env.Control(netsim.MsgInvite, id, peer)
		evict, accept := u.Accepting(env.Ledger(peer), peer, net.Out(peer), id)
		if !accept {
			env.Control(netsim.MsgInviteReply, peer, id)
			continue
		}
		// Positive reply: make room on both sides, then connect.
		// Following the Algo 4 ordering, the inviter evicts only now.
		if displace != topology.None {
			u.evict(env, id, displace)
			rep.Evicted = append(rep.Evicted, displace)
		}
		if evict != topology.None {
			u.evict(env, peer, evict)
		}
		ok = net.Connect(id, peer)
		env.Control(netsim.MsgInviteReply, peer, id)
		if ok {
			rep.Accepted = append(rep.Accepted, peer)
			env.ResetCounter(peer)
			swaps++
		}
	}
	env.ResetCounter(id)
	return rep
}

// Invitation is the inviter's half of Algo 4, decided from the node's
// own ledger and neighbor list: the most beneficial peer that is
// neither self, listed, nor skipped (skip may be nil), and the neighbor
// a positive reply would displace — topology.None while the list has
// room. ok is false when there is no such peer, or when the list is
// full and the peer does not outrank its least beneficial neighbor
// (Algo 5: "invitation messages are sent to the ones that do not belong
// to the current list of neighbors").
func (u *SymmetricUpdater) Invitation(led *stats.Ledger, self topology.NodeID, neighbors []topology.NodeID, skip func(topology.NodeID) bool) (peer, displace topology.NodeID, ok bool) {
	ranked := led.Rank(u.Benefit, func(p topology.NodeID) bool {
		return p == self || slices.Contains(neighbors, p) || (skip != nil && skip(p))
	})
	if len(ranked) == 0 {
		return topology.None, topology.None, false
	}
	best := ranked[0]
	if len(neighbors) < u.Capacity {
		return best.Peer, topology.None, true
	}
	displace = led.Least(u.Benefit, neighbors)
	return best.Peer, displace, best.Score > u.score(led, displace)
}

// Accepting is the invitee's half of Algo 4 ("On Neighboring
// Invitation Arrival", Algo 5 Process_Invitation), decided from the
// invitee's own ledger and neighbor list: whether to accept inviter and
// which neighbor to evict to make room — topology.None while the list
// has room. It refuses self and any peer already listed. Under
// AlwaysAccept the least beneficial neighbor makes room; under
// BenefitBased a full list accepts only an inviter that outranks it.
func (u *SymmetricUpdater) Accepting(led *stats.Ledger, self topology.NodeID, neighbors []topology.NodeID, inviter topology.NodeID) (evict topology.NodeID, ok bool) {
	if inviter == self || slices.Contains(neighbors, inviter) {
		return topology.None, false
	}
	if len(neighbors) < u.Capacity {
		return topology.None, true
	}
	evict = led.Least(u.Benefit, neighbors)
	switch u.Invite {
	case AlwaysAccept:
		return evict, true
	case BenefitBased:
		return evict, u.score(led, inviter) > u.score(led, evict)
	default:
		panic(fmt.Sprintf("core: unknown invite policy %d", u.Invite))
	}
}

// score is a peer's benefit in led; a peer with no record scores 0.
func (u *SymmetricUpdater) score(led *stats.Ledger, p topology.NodeID) float64 {
	if r := led.Get(p); r != nil {
		return u.Benefit.Score(r)
	}
	return 0
}

// evict implements the eviction message: the edge disappears in both
// directions and the victim resets its statistics about the evictor
// (Algo 5 Process_Eviction), so it will not attempt to reconnect soon.
func (u *SymmetricUpdater) evict(env SymmetricEnv, from, victim topology.NodeID) {
	env.Control(netsim.MsgEvict, from, victim)
	env.Net().Disconnect(from, victim)
	env.Ledger(victim).Reset(from)
}
