package topology

import (
	"math/rand"
	"testing"
)

// assertCSRMatches verifies the snapshot's adjacency is exactly the
// network's, node by node, in insertion order.
func assertCSRMatches(t *testing.T, net *Network, c *CSR) {
	t.Helper()
	if c.Len() != net.Len() {
		t.Fatalf("CSR has %d nodes, network %d", c.Len(), net.Len())
	}
	if c.EdgeCount() != net.EdgeCount() {
		t.Fatalf("CSR has %d edges, network %d", c.EdgeCount(), net.EdgeCount())
	}
	for i := 0; i < net.Len(); i++ {
		id := NodeID(i)
		want, got := net.Out(id), c.Out(id)
		if len(want) != len(got) {
			t.Fatalf("node %d: CSR degree %d, network %d", i, len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("node %d edge %d: CSR %d, network %d", i, j, got[j], want[j])
			}
		}
		if !c.Online(id) {
			t.Fatalf("node %d: snapshot reports offline", i)
		}
	}
}

// wireRandom connects roughly e random edges on net.
func wireRandom(net *Network, e int, r *rand.Rand) {
	n := net.Len()
	for i := 0; i < e; i++ {
		net.Connect(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
}

func TestFreezeMatchesNetwork(t *testing.T) {
	for _, rel := range []Relation{PureAsymmetric, Symmetric} {
		r := rand.New(rand.NewSource(1))
		net := NewNetwork(rel, 200, 4, 4)
		wireRandom(net, 600, r)
		assertCSRMatches(t, net, net.Freeze())
	}
}

func TestFreezeEmptyAndAllToAll(t *testing.T) {
	assertCSRMatches(t, NewNetwork(PureAsymmetric, 3, 4, 0), NewNetwork(PureAsymmetric, 3, 4, 0).Freeze())
	net := NewNetwork(AllToAll, 17, 0, 0)
	assertCSRMatches(t, net, net.Freeze())
}

// TestFreezeIsSnapshot: mutations after Freeze are invisible to the
// snapshot until re-freeze.
func TestFreezeIsSnapshot(t *testing.T) {
	net := NewNetwork(PureAsymmetric, 4, 4, 0)
	net.Connect(0, 1)
	c := net.Freeze()
	net.Connect(0, 2)
	net.Disconnect(0, 1)
	if out := c.Out(0); len(out) != 1 || out[0] != 1 {
		t.Fatalf("snapshot drifted with the network: %v", out)
	}
	assertCSRMatches(t, net, net.Freeze())
}

// TestFreezeIntoAfterChurn is the re-freeze property test: arbitrary
// Connect/Disconnect interleavings followed by FreezeInto always yield
// exactly the network's adjacency, reusing the snapshot's arrays.
func TestFreezeIntoAfterChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	net := NewNetwork(Symmetric, 100, 5, 5)
	c := net.Freeze()
	for round := 0; round < 50; round++ {
		for op := 0; op < 40; op++ {
			a, b := NodeID(r.Intn(100)), NodeID(r.Intn(100))
			if r.Intn(3) == 0 {
				net.Disconnect(a, b)
			} else {
				net.Connect(a, b)
			}
		}
		got := net.FreezeInto(c)
		if got != c {
			t.Fatal("FreezeInto did not return its receiver")
		}
		assertCSRMatches(t, net, c)
	}
}

// TestFreezeIntoSteadyStateAllocs: once the snapshot has reached its
// high-water capacity, re-freezing allocates nothing — the property
// that makes per-epoch re-freezing viable on the hot path.
func TestFreezeIntoSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	net := NewNetwork(PureAsymmetric, 500, 4, 0)
	wireRandom(net, 1500, r)
	c := net.Freeze()
	allocs := testing.AllocsPerRun(20, func() {
		net.FreezeInto(c)
	})
	if allocs != 0 {
		t.Fatalf("steady-state FreezeInto allocates %.1f times, want 0", allocs)
	}
}

func TestFreezeView(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net := NewNetwork(PureAsymmetric, 150, 6, 0)
	wireRandom(net, 500, r)
	c, err := FreezeView(net.Len(), net.Out)
	if err != nil {
		t.Fatal(err)
	}
	assertCSRMatches(t, net, c)
	empty, err := FreezeView(0, func(NodeID) []NodeID { return nil })
	if err != nil || empty.Len() != 0 || empty.EdgeCount() != 0 {
		t.Fatalf("empty view: %v, %d nodes / %d edges", err, empty.Len(), empty.EdgeCount())
	}
}

// TestFreezeViewRejectsBadViews: negative n and edges outside [0, n)
// are freeze-time errors, not mid-cascade panics.
func TestFreezeViewRejectsBadViews(t *testing.T) {
	if _, err := FreezeView(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := FreezeView(2, func(NodeID) []NodeID { return []NodeID{5} }); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if _, err := FreezeView(2, func(NodeID) []NodeID { return []NodeID{-1} }); err == nil {
		t.Error("negative neighbor accepted")
	}
}
