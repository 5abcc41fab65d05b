package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNeighborListBasics(t *testing.T) {
	l := &NeighborList{cap: 3}
	if l.Len() != 0 || l.Full() {
		t.Fatal("new list must be empty and not full")
	}
	if !l.Add(1) || !l.Add(2) || !l.Add(3) {
		t.Fatal("adds under capacity must succeed")
	}
	if l.Add(4) {
		t.Fatal("add over capacity must fail")
	}
	if l.Add(2) {
		t.Fatal("duplicate add must fail")
	}
	if !l.Contains(2) || l.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if !l.Remove(2) || l.Remove(2) {
		t.Fatal("Remove semantics wrong")
	}
	if got := l.Snapshot(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("order not preserved: %v", got)
	}
}

func TestNeighborListUnbounded(t *testing.T) {
	l := &NeighborList{}
	for i := 0; i < 1000; i++ {
		if !l.Add(NodeID(i)) {
			t.Fatalf("unbounded list refused add %d", i)
		}
	}
	if l.Full() {
		t.Fatal("unbounded list reports Full")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	l := &NeighborList{cap: 2}
	l.Add(1)
	s := l.Snapshot()
	s[0] = 99
	if !l.Contains(1) || l.Contains(99) {
		t.Fatal("Snapshot must not alias the backing array")
	}
}

func TestRelationString(t *testing.T) {
	for _, r := range []Relation{AllToAll, PureAsymmetric, Symmetric} {
		if r.String() == "" {
			t.Fatalf("relation %d has empty string", r)
		}
	}
}

func TestAllToAllConstruction(t *testing.T) {
	net := NewNetwork(AllToAll, 5, 4, 4) // caps ignored for all-to-all
	for i := 0; i < 5; i++ {
		out, in := net.Node(NodeID(i)).Out.Len(), net.Node(NodeID(i)).In.Len()
		if out != 4 || in != 4 {
			t.Fatalf("node %d degree (%d,%d), want (4,4)", i, out, in)
		}
		if net.Node(NodeID(i)).Out.Contains(NodeID(i)) {
			t.Fatal("self-loop in all-to-all")
		}
	}
	if !net.Consistent() {
		t.Fatal("all-to-all network inconsistent")
	}
}

func TestConnectAsymmetric(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 4, 2, 0)
	if !net.Connect(0, 1) || !net.Connect(0, 2) {
		t.Fatal("connects under capacity failed")
	}
	if net.Connect(0, 3) {
		t.Fatal("connect over out-capacity succeeded")
	}
	if net.Connect(0, 1) {
		t.Fatal("duplicate connect succeeded")
	}
	if net.Connect(1, 1) {
		t.Fatal("self connect succeeded")
	}
	// Asymmetric: reverse edge must NOT appear.
	if net.Node(1).Out.Contains(0) {
		t.Fatal("asymmetric connect created reverse out-edge")
	}
	if !net.Node(1).In.Contains(0) {
		t.Fatal("incoming list not updated")
	}
	if !net.Consistent() {
		t.Fatalf("audit: %v", net.AuditConsistency())
	}
}

func TestPureAsymmetricUnboundedIncoming(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 10, 1, 5 /* forced to 0 */)
	for i := 1; i < 10; i++ {
		if !net.Connect(NodeID(i), 0) {
			t.Fatalf("node %d could not attach to hub", i)
		}
	}
	if in := net.Node(0).In.Len(); in != 9 {
		t.Fatalf("hub in-degree %d, want 9", in)
	}
}

func TestConnectSymmetricCreatesBothEdges(t *testing.T) {
	net := NewNetwork(Symmetric, 4, 2, 2)
	if !net.Connect(0, 1) {
		t.Fatal("symmetric connect failed")
	}
	if !net.Node(1).Out.Contains(0) || !net.Node(0).In.Contains(1) {
		t.Fatal("symmetric connect must create the reverse edge")
	}
	if !net.Consistent() {
		t.Fatalf("audit: %v", net.AuditConsistency())
	}
}

func TestConnectSymmetricRespectsPeerCapacity(t *testing.T) {
	net := NewNetwork(Symmetric, 5, 2, 2)
	net.Connect(1, 0)
	net.Connect(2, 0) // node 0 now full
	if net.Connect(3, 0) {
		t.Fatal("connect to full symmetric peer succeeded")
	}
	out, in := net.Node(3).Out.Len(), net.Node(3).In.Len()
	if out != 0 || in != 0 {
		t.Fatal("failed connect must not leave partial edges")
	}
	if !net.Consistent() {
		t.Fatal("inconsistent after refused connect")
	}
}

func TestDisconnect(t *testing.T) {
	net := NewNetwork(Symmetric, 3, 2, 2)
	net.Connect(0, 1)
	if !net.Disconnect(0, 1) {
		t.Fatal("disconnect failed")
	}
	if net.Disconnect(0, 1) {
		t.Fatal("double disconnect succeeded")
	}
	for _, n := range []NodeID{0, 1} {
		out, in := net.Node(n).Out.Len(), net.Node(n).In.Len()
		if out != 0 || in != 0 {
			t.Fatalf("node %d still has edges after disconnect", n)
		}
	}
	if !net.Consistent() {
		t.Fatal("inconsistent after disconnect")
	}
}

func TestIsolate(t *testing.T) {
	net := NewNetwork(Symmetric, 5, 4, 4)
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(3, 0)
	net.Isolate(0)
	out, in := net.Node(0).Out.Len(), net.Node(0).In.Len()
	if out != 0 || in != 0 {
		t.Fatalf("isolated node has degree (%d,%d)", out, in)
	}
	if !net.Consistent() {
		t.Fatalf("audit after isolate: %v", net.AuditConsistency())
	}
	// Other nodes must not reference 0 anywhere.
	for i := 1; i < 5; i++ {
		n := net.Node(NodeID(i))
		if n.Out.Contains(0) || n.In.Contains(0) {
			t.Fatalf("node %d still references isolated node", i)
		}
	}
}

func TestAuditDetectsViolation(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 3, 2, 0)
	net.Connect(0, 1)
	// Corrupt: remove the incoming entry behind the network's back.
	net.Node(1).In.Remove(0)
	bad := net.AuditConsistency()
	if len(bad) != 1 || bad[0].Src != 0 || bad[0].Dst != 1 || bad[0].Reverse {
		t.Fatalf("audit = %v", bad)
	}
	if bad[0].String() == "" {
		t.Fatal("violation must render")
	}
}

func TestAuditDetectsDanglingIncoming(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 3, 2, 0)
	net.Node(2).In.Add(0) // 0 never connected
	bad := net.AuditConsistency()
	if len(bad) != 1 || !bad[0].Reverse {
		t.Fatalf("audit = %v", bad)
	}
}

func TestAuditDetectsAsymmetryInSymmetricRegime(t *testing.T) {
	net := NewNetwork(Symmetric, 3, 2, 2)
	net.Connect(0, 1)
	net.Node(1).Out.Remove(0) // break symmetry only
	if net.Consistent() {
		t.Fatal("symmetric regime must flag one-way edges")
	}
}

func TestEdgeCount(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 4, 3, 0)
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(3, 0)
	if net.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d, want 3", net.EdgeCount())
	}
}

func TestNewNetworkPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNetwork(0) did not panic")
		}
	}()
	NewNetwork(Symmetric, 0, 4, 4)
}

func TestRandomWireDegreesAndConsistency(t *testing.T) {
	s := rng.New(1)
	net := NewNetwork(Symmetric, 100, 4, 4)
	RandomWire(net, 4, s.Intn)
	if !net.Consistent() {
		t.Fatalf("random wiring inconsistent: %v", net.AuditConsistency()[:3])
	}
	for i := 0; i < 100; i++ {
		out, in := net.Node(NodeID(i)).Out.Len(), net.Node(NodeID(i)).In.Len()
		if out > 4 || in > 4 {
			t.Fatalf("node %d degree (%d,%d) exceeds cap", i, out, in)
		}
		if out != in {
			t.Fatalf("symmetric node %d has out=%d in=%d", i, out, in)
		}
	}
	// Most nodes should have reached full degree.
	full := 0
	for i := 0; i < 100; i++ {
		if out := net.Node(NodeID(i)).Out.Len(); out == 4 {
			full++
		}
	}
	if full < 80 {
		t.Fatalf("only %d/100 nodes reached full degree", full)
	}
}

func TestRandomAttachSkipsSelfAndRespectsK(t *testing.T) {
	s := rng.New(2)
	net := NewNetwork(PureAsymmetric, 10, 5, 0)
	cands := []NodeID{0, 1, 2, 3, 4}
	n := RandomAttach(net, 0, cands, 3, s.Intn)
	if n != 3 {
		t.Fatalf("attached %d, want 3", n)
	}
	if net.Node(0).Out.Contains(0) {
		t.Fatal("attached to self")
	}
}

func TestRandomAttachZeroK(t *testing.T) {
	s := rng.New(3)
	net := NewNetwork(PureAsymmetric, 3, 2, 0)
	if RandomAttach(net, 0, []NodeID{1, 2}, 0, s.Intn) != 0 {
		t.Fatal("k=0 must attach nothing")
	}
}

// Property: any sequence of Connect/Disconnect/Isolate keeps the
// network consistent in every regime. This is the paper's core
// structural invariant.
func TestQuickOperationsPreserveConsistency(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		s := rng.New(seed)
		for _, rel := range []Relation{PureAsymmetric, Symmetric} {
			net := NewNetwork(rel, 12, 3, 3)
			for _, op := range ops {
				a := NodeID(int(op) % 12)
				b := NodeID(int(op>>4) % 12)
				switch op % 5 {
				case 0, 1:
					net.Connect(a, b)
				case 2:
					net.Disconnect(a, b)
				case 3:
					net.Isolate(a)
				case 4:
					net.Connect(NodeID(s.Intn(12)), b)
				}
				if !net.Consistent() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetric regime keeps out == in as sets after arbitrary
// operations.
func TestQuickSymmetricOutEqualsIn(t *testing.T) {
	f := func(ops []uint16) bool {
		net := NewNetwork(Symmetric, 10, 3, 3)
		for _, op := range ops {
			a := NodeID(int(op) % 10)
			b := NodeID(int(op>>4) % 10)
			if op%3 == 0 {
				net.Disconnect(a, b)
			} else {
				net.Connect(a, b)
			}
		}
		for i := 0; i < 10; i++ {
			n := net.Node(NodeID(i))
			if n.Out.Len() != n.In.Len() {
				return false
			}
			for _, v := range n.Out.IDs() {
				if !n.In.Contains(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConnectDisconnect(b *testing.B) {
	net := NewNetwork(Symmetric, 1000, 4, 4)
	for i := 0; i < b.N; i++ {
		a := NodeID(i % 1000)
		c := NodeID((i*7 + 1) % 1000)
		net.Connect(a, c)
		net.Disconnect(a, c)
	}
}

func BenchmarkAudit(b *testing.B) {
	s := rng.New(1)
	net := NewNetwork(Symmetric, 1000, 4, 4)
	RandomWire(net, 4, s.Intn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !net.Consistent() {
			b.Fatal("inconsistent")
		}
	}
}
