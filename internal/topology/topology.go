// Package topology implements the neighbor-relation layer of Section
// 3.1 of the paper: per-repository outgoing and incoming neighbor
// lists, capacity limits, the three relation regimes (all-to-all, pure
// asymmetric, symmetric), and the network-consistency invariant
//
//	j ∈ out(i)  ⇒  i ∈ in(j)
//
// which the paper requires at all times in the symmetric regime and
// gets for free in the pure asymmetric regime.
//
// The package stores the *global* view used by the simulator; the
// distributed runtime in internal/live maintains the same lists
// per-process using the same types.
package topology

import "fmt"

// NodeID identifies a repository. IDs are dense, 0-based indices so
// simulations can use slices instead of maps on the hot path.
type NodeID int32

// None is the sentinel for "no node".
const None NodeID = -1

// Relation is the neighbor-relation regime of Section 3.1.
type Relation uint8

const (
	// AllToAll connects every node to every other node (single
	// multicast group; only feasible for small N).
	AllToAll Relation = iota
	// PureAsymmetric caps the outgoing list but leaves the incoming
	// list unbounded (capacity N); the network is always consistent and
	// every node reconfigures unilaterally (Algo 3).
	PureAsymmetric
	// Symmetric forces out(i) == in(i); changes require the
	// invitation/eviction agreement of Algo 4.
	Symmetric
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case AllToAll:
		return "all-to-all"
	case PureAsymmetric:
		return "pure-asymmetric"
	case Symmetric:
		return "symmetric"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// NeighborList is a small ordered set of node IDs with a capacity.
// Order is maintained for determinism (iteration order == insertion
// order), and membership tests are O(len) — lists hold a handful of
// entries (the paper uses 4), so linear scans beat map overhead.
//
// The zero value is an unbounded empty list; Network embeds lists by
// value so building an n-node network costs one slice allocation, not
// 3n. Always use NeighborList through a pointer (methods have pointer
// receivers); copying a list aliases its backing array.
type NeighborList struct {
	ids []NodeID
	cap int
}

// Len returns the number of members.
func (l *NeighborList) Len() int { return len(l.ids) }

// Full reports whether the list is at capacity.
func (l *NeighborList) Full() bool { return l.cap > 0 && len(l.ids) >= l.cap }

// Contains reports membership.
func (l *NeighborList) Contains(id NodeID) bool {
	for _, v := range l.ids {
		if v == id {
			return true
		}
	}
	return false
}

// Add appends id if absent and under capacity. It reports whether the
// list changed.
func (l *NeighborList) Add(id NodeID) bool {
	if l.Full() || l.Contains(id) {
		return false
	}
	if l.ids == nil && l.cap > 0 {
		// First member of a capped list: size the backing array exactly
		// once — capped lists (the simulation case) never reallocate.
		l.ids = make([]NodeID, 0, l.cap)
	}
	l.ids = append(l.ids, id)
	return true
}

// Remove deletes id preserving order; it reports whether id was
// present.
func (l *NeighborList) Remove(id NodeID) bool {
	for i, v := range l.ids {
		if v == id {
			l.ids = append(l.ids[:i], l.ids[i+1:]...)
			return true
		}
	}
	return false
}

// IDs returns the members in insertion order. The returned slice is the
// backing array; callers must not mutate it. Use Snapshot for a copy.
func (l *NeighborList) IDs() []NodeID { return l.ids }

// Snapshot returns a copy of the members.
func (l *NeighborList) Snapshot() []NodeID {
	out := make([]NodeID, len(l.ids))
	copy(out, l.ids)
	return out
}

// Node is one repository's neighborhood state: the outgoing list L_i
// (where its own requests go) and the incoming list I_i (who may send
// to it). Nodes are stored by value inside Network.nodes — always
// access them through Network.Node (a stable pointer into that slice),
// never copy a Node.
type Node struct {
	ID  NodeID
	Out NeighborList
	In  NeighborList
}

// Network is the global neighbor graph for n nodes, stored as one flat
// node slice indexed by NodeID — building a 100k-node network is a
// single allocation plus the lazily-created neighbor backing arrays.
type Network struct {
	relation Relation
	nodes    []Node
}

// NewNetwork builds a network of n isolated nodes under the given
// relation regime. outCap bounds every outgoing list; inCap bounds
// incoming lists and is forced to 0 (unbounded) for PureAsymmetric and
// to outCap for Symmetric, per Section 3.1.
func NewNetwork(relation Relation, n, outCap, inCap int) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("topology: NewNetwork with n=%d", n))
	}
	switch relation {
	case PureAsymmetric:
		inCap = 0
	case Symmetric:
		inCap = outCap
	case AllToAll:
		outCap, inCap = 0, 0
	}
	net := &Network{relation: relation, nodes: make([]Node, n)}
	for i := range net.nodes {
		net.nodes[i].ID = NodeID(i)
		net.nodes[i].Out.cap = outCap
		net.nodes[i].In.cap = inCap
	}
	if relation == AllToAll {
		for i := range net.nodes {
			for j := range net.nodes {
				if i != j {
					net.nodes[i].Out.Add(NodeID(j))
					net.nodes[i].In.Add(NodeID(j))
				}
			}
		}
	}
	return net
}

// Len returns the number of nodes.
func (net *Network) Len() int { return len(net.nodes) }

// Node returns the state of one node. The pointer stays valid for the
// network's lifetime (the node slice never reallocates).
func (net *Network) Node(id NodeID) *Node {
	return &net.nodes[id]
}

// Out returns node id's outgoing neighbor IDs (shared backing array).
func (net *Network) Out(id NodeID) []NodeID { return net.nodes[id].Out.IDs() }

// Connect makes dst an outgoing neighbor of src, updating dst's
// incoming list to preserve consistency. It reports whether the edge
// was added; it fails when either side is at capacity, the edge exists,
// or src == dst. In the Symmetric regime the reverse edge is added too
// (and the call fails atomically if the reverse edge cannot be added).
func (net *Network) Connect(src, dst NodeID) bool {
	if src == dst {
		return false
	}
	s, d := &net.nodes[src], &net.nodes[dst]
	if s.Out.Contains(dst) || s.Out.Full() || d.In.Full() {
		return false
	}
	if net.relation == Symmetric {
		// Need room for the reverse edge as well.
		if d.Out.Full() || s.In.Full() {
			return false
		}
		s.Out.Add(dst)
		d.In.Add(src)
		d.Out.Add(src)
		s.In.Add(dst)
		return true
	}
	s.Out.Add(dst)
	d.In.Add(src)
	return true
}

// Disconnect removes dst from src's outgoing list (and the reverse
// edge in the Symmetric regime). It reports whether an edge was
// removed.
func (net *Network) Disconnect(src, dst NodeID) bool {
	s, d := &net.nodes[src], &net.nodes[dst]
	if !s.Out.Remove(dst) {
		return false
	}
	d.In.Remove(src)
	if net.relation == Symmetric {
		d.Out.Remove(src)
		s.In.Remove(dst)
	}
	return true
}

// Isolate removes every edge touching id (both directions). Used when a
// node goes off-line.
func (net *Network) Isolate(id NodeID) {
	n := &net.nodes[id]
	for _, out := range n.Out.Snapshot() {
		net.Disconnect(id, out)
	}
	for _, in := range n.In.Snapshot() {
		net.Disconnect(in, id)
	}
}

// InconsistentEdge describes a violation of the consistency invariant.
type InconsistentEdge struct {
	Src, Dst NodeID
	// Reverse is true when the violation is a dangling incoming entry
	// (Dst lists Src as incoming but Src does not list Dst as outgoing).
	Reverse bool
}

// String implements fmt.Stringer.
func (e InconsistentEdge) String() string {
	if e.Reverse {
		return fmt.Sprintf("in(%d) contains %d but out(%d) misses %d", e.Dst, e.Src, e.Src, e.Dst)
	}
	return fmt.Sprintf("out(%d) contains %d but in(%d) misses %d", e.Src, e.Dst, e.Dst, e.Src)
}

// AuditConsistency returns every violation of the paper's consistency
// definition, in both directions, plus symmetry violations when the
// regime is Symmetric. An empty slice means the network is consistent.
func (net *Network) AuditConsistency() []InconsistentEdge {
	var bad []InconsistentEdge
	for i := range net.nodes {
		n := &net.nodes[i]
		for _, dst := range n.Out.IDs() {
			if !net.nodes[dst].In.Contains(n.ID) {
				bad = append(bad, InconsistentEdge{Src: n.ID, Dst: dst})
			}
		}
		for _, src := range n.In.IDs() {
			if !net.nodes[src].Out.Contains(n.ID) {
				bad = append(bad, InconsistentEdge{Src: src, Dst: n.ID, Reverse: true})
			}
		}
		if net.relation == Symmetric {
			for _, dst := range n.Out.IDs() {
				if !net.nodes[dst].Out.Contains(n.ID) {
					bad = append(bad, InconsistentEdge{Src: n.ID, Dst: dst})
				}
			}
		}
	}
	return bad
}

// Consistent reports whether the network satisfies the invariant.
func (net *Network) Consistent() bool { return len(net.AuditConsistency()) == 0 }
