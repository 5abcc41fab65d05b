package core

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// testEnv implements SymmetricEnv over a global network.
type testEnv struct {
	net     *topology.Network
	ledgers map[topology.NodeID]*stats.Ledger
	offline map[topology.NodeID]bool
	control map[netsim.MessageKind]int
	resets  map[topology.NodeID]int
}

func newTestEnv(n int, cap_ int) *testEnv {
	e := &testEnv{
		net:     topology.NewNetwork(topology.Symmetric, n, cap_, cap_),
		ledgers: map[topology.NodeID]*stats.Ledger{},
		offline: map[topology.NodeID]bool{},
		control: map[netsim.MessageKind]int{},
		resets:  map[topology.NodeID]int{},
	}
	for i := 0; i < n; i++ {
		e.ledgers[topology.NodeID(i)] = stats.NewLedger()
	}
	return e
}

func (e *testEnv) Net() *topology.Network                  { return e.net }
func (e *testEnv) Ledger(id topology.NodeID) *stats.Ledger { return e.ledgers[id] }
func (e *testEnv) Online(id topology.NodeID) bool          { return !e.offline[id] }
func (e *testEnv) ResetCounter(id topology.NodeID)         { e.resets[id]++ }
func (e *testEnv) Control(k netsim.MessageKind, _, _ topology.NodeID) {
	e.control[k]++
}

func TestPlanAsymmetricTopK(t *testing.T) {
	led := stats.NewLedger()
	for i := 1; i <= 5; i++ {
		led.Touch(topology.NodeID(i)).Benefit = float64(i)
	}
	got := PlanAsymmetric(led, stats.Cumulative{}, 3, nil, nil)
	if len(got) != 3 || got[0] != 5 || got[1] != 4 || got[2] != 3 {
		t.Fatalf("PlanAsymmetric = %v", got)
	}
}

func TestPlanAsymmetricFillsFromCurrent(t *testing.T) {
	led := stats.NewLedger()
	led.Touch(9).Benefit = 5
	got := PlanAsymmetric(led, stats.Cumulative{}, 3, ids(1, 2), nil)
	if len(got) != 3 || got[0] != 9 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("PlanAsymmetric = %v", got)
	}
}

func TestPlanAsymmetricEligibility(t *testing.T) {
	led := stats.NewLedger()
	led.Touch(1).Benefit = 10
	led.Touch(2).Benefit = 5
	got := PlanAsymmetric(led, stats.Cumulative{}, 2, nil,
		func(id topology.NodeID) bool { return id != 1 })
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("PlanAsymmetric = %v", got)
	}
}

func TestPlanAsymmetricNoDuplicateFromCurrent(t *testing.T) {
	led := stats.NewLedger()
	led.Touch(1).Benefit = 10
	got := PlanAsymmetric(led, stats.Cumulative{}, 2, ids(1, 2), nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("PlanAsymmetric = %v", got)
	}
}

func TestPlanAsymmetricPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	PlanAsymmetric(stats.NewLedger(), stats.Cumulative{}, 0, nil, nil)
}

func TestApplyOutList(t *testing.T) {
	net := topology.NewNetwork(topology.PureAsymmetric, 5, 3, 0)
	net.Connect(0, 1)
	net.Connect(0, 2)
	added, removed := ApplyOutList(net, 0, ids(2, 3, 4))
	if len(added) != 2 || added[0] != 3 || added[1] != 4 {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("removed = %v", removed)
	}
	if !net.Consistent() {
		t.Fatal("network inconsistent after ApplyOutList")
	}
	out := net.Out(0)
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestApplyOutListIgnoresSelf(t *testing.T) {
	net := topology.NewNetwork(topology.PureAsymmetric, 3, 3, 0)
	added, _ := ApplyOutList(net, 0, ids(0, 1))
	if len(added) != 1 || added[0] != 1 {
		t.Fatalf("added = %v", added)
	}
}

func TestReconfigureInvitesBestCandidate(t *testing.T) {
	e := newTestEnv(5, 2)
	// Node 0 currently linked to 1; ledger says 3 is great.
	e.net.Connect(0, 1)
	e.ledgers[0].Touch(3).Benefit = 10
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	rep := u.Reconfigure(e, 0)
	if len(rep.Accepted) != 1 || rep.Accepted[0] != 3 {
		t.Fatalf("report: %+v", rep)
	}
	if !e.net.Node(0).Out.Contains(3) || !e.net.Node(3).Out.Contains(0) {
		t.Fatal("symmetric edge not created")
	}
	if len(rep.Evicted) != 0 {
		t.Fatalf("needless eviction: %+v", rep)
	}
	if !e.net.Consistent() {
		t.Fatal("inconsistent after reconfigure")
	}
	if e.resets[0] != 1 {
		t.Fatal("reconfiguring node's counter not reset")
	}
	if e.resets[3] != 1 {
		t.Fatal("invited node's counter not reset")
	}
	if e.control[netsim.MsgInvite] != 1 || e.control[netsim.MsgInviteReply] != 1 {
		t.Fatalf("control traffic: %v", e.control)
	}
}

func TestReconfigureEvictsWorstWhenFull(t *testing.T) {
	e := newTestEnv(5, 2)
	e.net.Connect(0, 1)
	e.net.Connect(0, 2)
	e.ledgers[0].Touch(1).Benefit = 1
	e.ledgers[0].Touch(2).Benefit = 5
	e.ledgers[0].Touch(3).Benefit = 10
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	rep := u.Reconfigure(e, 0)
	if len(rep.Evicted) != 1 || rep.Evicted[0] != 1 {
		t.Fatalf("evicted: %v", rep.Evicted)
	}
	if len(rep.Accepted) != 1 || rep.Accepted[0] != 3 {
		t.Fatalf("accepted: %v", rep.Accepted)
	}
	out := e.net.Out(0)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if e.net.Node(0).Out.Contains(1) {
		t.Fatal("worst neighbor still present")
	}
	// Process_Eviction: the victim resets its statistics about the
	// evictor.
	if e.ledgers[1].Get(0) != nil {
		t.Fatal("evicted node kept statistics about evictor")
	}
	if !e.net.Consistent() {
		t.Fatal("inconsistent after eviction")
	}
	if e.control[netsim.MsgEvict] != 1 {
		t.Fatalf("eviction messages: %v", e.control)
	}
}

func TestReconfigureKeepsBetterIncumbents(t *testing.T) {
	e := newTestEnv(5, 2)
	e.net.Connect(0, 1)
	e.net.Connect(0, 2)
	e.ledgers[0].Touch(1).Benefit = 8
	e.ledgers[0].Touch(2).Benefit = 9
	e.ledgers[0].Touch(3).Benefit = 5 // worse than both incumbents
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	rep := u.Reconfigure(e, 0)
	if rep.Changed() {
		t.Fatalf("reconfigure changed a superior neighborhood: %+v", rep)
	}
	if e.resets[0] != 1 {
		t.Fatal("counter must reset even without changes")
	}
}

func TestReconfigureMaxSwaps(t *testing.T) {
	e := newTestEnv(8, 4)
	for i := 3; i <= 6; i++ {
		e.ledgers[0].Touch(topology.NodeID(i)).Benefit = float64(i)
	}
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 4, Invite: AlwaysAccept, MaxSwaps: 1}
	rep := u.Reconfigure(e, 0)
	if len(rep.Accepted) != 1 {
		t.Fatalf("MaxSwaps=1 accepted %d", len(rep.Accepted))
	}
	if rep.Accepted[0] != 6 {
		t.Fatalf("must invite the single best candidate, got %v", rep.Accepted)
	}
	// Unlimited swaps fills the whole list.
	e2 := newTestEnv(8, 4)
	for i := 3; i <= 6; i++ {
		e2.ledgers[0].Touch(topology.NodeID(i)).Benefit = float64(i)
	}
	rep2 := u2Reconfigure(e2)
	if len(rep2.Accepted) != 4 {
		t.Fatalf("unlimited swaps accepted %d", len(rep2.Accepted))
	}
}

func u2Reconfigure(e *testEnv) ReconfigReport {
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 4, Invite: AlwaysAccept}
	return u.Reconfigure(e, 0)
}

func TestReconfigureSkipsOfflineCandidates(t *testing.T) {
	e := newTestEnv(4, 2)
	e.ledgers[0].Touch(2).Benefit = 10
	e.ledgers[0].Touch(3).Benefit = 5
	e.offline[2] = true
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	rep := u.Reconfigure(e, 0)
	if len(rep.Accepted) != 1 || rep.Accepted[0] != 3 {
		t.Fatalf("accepted: %v", rep.Accepted)
	}
}

func TestReconfigureSkipsExistingNeighbors(t *testing.T) {
	e := newTestEnv(4, 2)
	e.net.Connect(0, 1)
	e.ledgers[0].Touch(1).Benefit = 10
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	rep := u.Reconfigure(e, 0)
	if len(rep.Invited) != 0 {
		t.Fatalf("invited an existing neighbor: %+v", rep)
	}
}

// The TestDeliverInvitation tests pin the invitee's half of Algo 4,
// Accepting: the decision a node takes when an invitation is delivered
// to it.

func TestDeliverInvitationAlwaysAcceptEvicts(t *testing.T) {
	e := newTestEnv(5, 2)
	// Node 3 is full with 1 and 2; it values 1 less.
	e.net.Connect(3, 1)
	e.net.Connect(3, 2)
	e.ledgers[3].Touch(1).Benefit = 1
	e.ledgers[3].Touch(2).Benefit = 5
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	if evict, ok := u.Accepting(e.ledgers[3], 3, e.net.Out(3), 0); !ok || evict != 1 {
		t.Fatalf("Accepting = %d, %v; want evict 1, accept", evict, ok)
	}
	// Delivered by a reconfiguration of node 0, the decision takes effect.
	e.ledgers[0].Touch(3).Benefit = 1
	if rep := u.Reconfigure(e, 0); len(rep.Accepted) != 1 {
		t.Fatalf("always-accept refused: %+v", rep)
	}
	if !e.net.Node(3).Out.Contains(0) {
		t.Fatal("edge to inviter missing")
	}
	if e.net.Node(3).Out.Contains(1) {
		t.Fatal("least beneficial neighbor not evicted")
	}
	if e.ledgers[1].Get(3) != nil {
		t.Fatal("victim kept stats about evictor")
	}
	if !e.net.Consistent() {
		t.Fatal("inconsistent after invitation")
	}
}

func TestDeliverInvitationBenefitBasedRejects(t *testing.T) {
	e := newTestEnv(5, 2)
	e.net.Connect(3, 1)
	e.net.Connect(3, 2)
	e.ledgers[3].Touch(1).Benefit = 5
	e.ledgers[3].Touch(2).Benefit = 6
	e.ledgers[3].Touch(0).Benefit = 1 // inviter is worse than both
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: BenefitBased}
	if _, ok := u.Accepting(e.ledgers[3], 3, e.net.Out(3), 0); ok {
		t.Fatal("benefit-based accepted an inferior inviter")
	}
	e.ledgers[0].Touch(3).Benefit = 1
	u.Reconfigure(e, 0)
	if e.net.Node(3).Out.Len() != 2 {
		t.Fatal("rejection must not change edges")
	}
	if e.control[netsim.MsgInviteReply] != 1 {
		t.Fatal("negative reply not sent")
	}
}

func TestDeliverInvitationBenefitBasedAcceptsWhenBetter(t *testing.T) {
	e := newTestEnv(5, 2)
	e.net.Connect(3, 1)
	e.net.Connect(3, 2)
	e.ledgers[3].Touch(1).Benefit = 1
	e.ledgers[3].Touch(2).Benefit = 6
	e.ledgers[3].Touch(0).Benefit = 4 // better than neighbor 1
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: BenefitBased}
	evict, ok := u.Accepting(e.ledgers[3], 3, e.net.Out(3), 0)
	if !ok {
		t.Fatal("benefit-based refused a superior inviter")
	}
	if evict != 1 {
		t.Fatalf("evicts %d, want the inferior neighbor 1", evict)
	}
}

func TestDeliverInvitationBenefitBasedAcceptsWhenRoom(t *testing.T) {
	e := newTestEnv(3, 2)
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: BenefitBased}
	if evict, ok := u.Accepting(e.ledgers[1], 1, e.net.Out(1), 0); !ok || evict != topology.None {
		t.Fatalf("Accepting = %d, %v despite free slots", evict, ok)
	}
}

func TestDeliverInvitationOfflineRefuses(t *testing.T) {
	// Liveness is the runtime's to know, not the invitee's: Reconfigure
	// never delivers an invitation to an off-line node.
	e := newTestEnv(3, 2)
	e.offline[1] = true
	e.ledgers[0].Touch(1).Benefit = 10
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	if rep := u.Reconfigure(e, 0); len(rep.Invited) != 0 || e.net.Node(1).Out.Len() != 0 {
		t.Fatalf("offline node invited: %+v", rep)
	}
}

func TestDeliverInvitationSelfRefuses(t *testing.T) {
	e := newTestEnv(3, 2)
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	if _, ok := u.Accepting(e.ledgers[1], 1, e.net.Out(1), 1); ok {
		t.Fatal("self-invitation accepted")
	}
}

func TestDeliverInvitationExistingNeighborRefuses(t *testing.T) {
	e := newTestEnv(3, 2)
	e.net.Connect(0, 1)
	e.net.Connect(1, 2)
	e.ledgers[1].Touch(2).Benefit = 5 // a full list must not evict 2 for 0
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: AlwaysAccept}
	if evict, ok := u.Accepting(e.ledgers[1], 1, e.net.Out(1), 0); ok || evict != topology.None {
		t.Fatalf("re-invitation of an existing neighbor: Accepting = %d, %v", evict, ok)
	}
}

func TestInvitationDisplacesLeastBeneficial(t *testing.T) {
	led := stats.NewLedger()
	led.Touch(1).Benefit = 3
	led.Touch(2).Benefit = 1
	led.Touch(3).Benefit = 0.5
	led.Touch(4).Benefit = 9
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2}
	if peer, displace, ok := u.Invitation(led, 0, ids(1, 2), nil); !ok || peer != 4 || displace != 2 {
		t.Fatalf("Invitation = %d, %d, %v; want 4 displacing 2", peer, displace, ok)
	}
	skip4 := func(p topology.NodeID) bool { return p == 4 }
	if _, _, ok := u.Invitation(led, 0, ids(1, 2), skip4); ok {
		t.Fatal("invited a peer that does not outrank the least beneficial neighbor")
	}
	if peer, displace, ok := u.Invitation(led, 0, ids(1), skip4); !ok || peer != 2 || displace != topology.None {
		t.Fatalf("Invitation with room = %d, %d, %v; want 2, no displacement", peer, displace, ok)
	}
	if _, _, ok := u.Invitation(stats.NewLedger(), 0, nil, nil); ok {
		t.Fatal("invited with an empty ledger")
	}
}

// deliver is a message-driven runtime's invitee: it takes the decision
// from its own ledger and list, makes room, and links.
func deliver(u *SymmetricUpdater, e *testEnv, inviter, invitee topology.NodeID) {
	if !e.Online(invitee) {
		return
	}
	if evict, ok := u.Accepting(e.ledgers[invitee], invitee, e.net.Out(invitee), inviter); ok {
		if evict != topology.None {
			u.evict(e, invitee, evict)
		}
		e.net.Connect(invitee, inviter)
	}
}

func TestReconfigurePanicsOnZeroCapacity(t *testing.T) {
	e := newTestEnv(2, 2)
	u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	u.Reconfigure(e, 0)
}

func TestInvitePolicyString(t *testing.T) {
	if AlwaysAccept.String() == "" || BenefitBased.String() == "" {
		t.Fatal("invite policies must render")
	}
}

// Property: arbitrary sequences of reconfigurations and invitations
// keep the symmetric network consistent and within capacity — the
// paper's central structural claim for Algo 4.
func TestQuickReconfigurePreservesConsistency(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		s := rng.New(seed)
		const n, capacity = 12, 3
		e := newTestEnv(n, capacity)
		u := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: capacity, Invite: AlwaysAccept, MaxSwaps: 1}
		ub := &SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: capacity, Invite: BenefitBased}
		for step := 0; step < int(steps); step++ {
			id := topology.NodeID(s.Intn(n))
			peer := topology.NodeID(s.Intn(n))
			switch s.Intn(5) {
			case 0:
				e.ledgers[id].Touch(peer).Benefit += float64(s.Intn(10))
			case 1:
				u.Reconfigure(e, id)
			case 2:
				ub.Reconfigure(e, id)
			case 3:
				e.offline[id] = !e.offline[id]
				if e.offline[id] {
					e.net.Isolate(id)
				}
			case 4:
				if !e.net.Node(id).Out.Full() {
					deliver(u, e, id, peer)
				}
			}
			if !e.net.Consistent() {
				return false
			}
			for i := 0; i < n; i++ {
				out, in := e.net.Node(topology.NodeID(i)).Out.Len(), e.net.Node(topology.NodeID(i)).In.Len()
				if out > capacity || in > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
