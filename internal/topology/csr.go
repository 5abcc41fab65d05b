package topology

import (
	"fmt"
	"math"
)

// CSR is a read-optimized, immutable snapshot of a network's outgoing
// adjacency in compressed-sparse-row form: one flat edge array plus an
// offsets array, so the hot path's neighbor lookup is two loads from
// two contiguous slices instead of a pointer chase through per-node
// NeighborList backing arrays scattered across the heap.
//
// The mutable Network stays the build/reconfiguration representation;
// a CSR is frozen from it (Freeze/FreezeInto) and handed to the
// simulation hot path, which runs on the snapshot until the next
// reconfiguration epoch re-freezes. Freezing is O(nodes + edges) with
// at most two allocations — FreezeInto reuses a previous snapshot's
// backing arrays, so steady-state re-freezing allocates nothing.
//
// CSR implements core.Graph's shape with every node online: liveness
// is a property of the live simulation layered on top, not of the
// frozen adjacency. Callers with churn either re-freeze when liveness
// changes or keep the Network view.
type CSR struct {
	// offsets has len(n)+1 entries; node i's outgoing neighbors are
	// edges[offsets[i]:offsets[i+1]], in the Network's insertion order.
	offsets []int32
	edges   []NodeID
}

// Freeze snapshots the network's outgoing adjacency into a fresh CSR.
func (net *Network) Freeze() *CSR {
	return net.FreezeInto(nil)
}

// FreezeInto is Freeze reusing c's backing arrays (c may be nil); it
// returns the snapshot, which is c when c had capacity. The previous
// contents of c are invalidated — slices returned by c.Out before the
// call must not be retained across it.
func (net *Network) FreezeInto(c *CSR) *CSR {
	if c == nil {
		c = &CSR{}
	}
	n := len(net.nodes)
	total := 0
	for i := range net.nodes {
		total += net.nodes[i].Out.Len()
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("topology: %d edges overflow CSR int32 offsets", total))
	}
	c.offsets = growCap(c.offsets, n+1)
	c.edges = growCap(c.edges, total)
	off := int32(0)
	for i := range net.nodes {
		c.offsets[i] = off
		off += int32(copy(c.edges[off:], net.nodes[i].Out.IDs()))
	}
	c.offsets[n] = off
	return c
}

// FreezeView builds a CSR from any adjacency function over n dense
// node IDs — the bridge for graph views that are not a *Network; the
// freeze tests use it as the independent reference Freeze and
// FreezeInto must match. out must be pure for the
// duration of the call (it is invoked twice per node: a sizing pass
// and a fill pass). Unlike Network freezes, the view is arbitrary
// caller input, so violations — a negative n, or an edge pointing
// outside [0, n), which would otherwise panic mid-cascade when that
// neighbor is popped as an arrival — are reported as errors at freeze
// time.
func FreezeView(n int, out func(id NodeID) []NodeID) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("topology: FreezeView with n=%d", n)
	}
	c := &CSR{offsets: make([]int32, n+1)}
	total := 0
	for i := 0; i < n; i++ {
		total += len(out(NodeID(i)))
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("topology: %d+ edges overflow CSR int32 offsets", total)
		}
	}
	c.edges = make([]NodeID, total)
	off := int32(0)
	for i := 0; i < n; i++ {
		c.offsets[i] = off
		for _, nb := range out(NodeID(i)) {
			if nb < 0 || int(nb) >= n {
				return nil, fmt.Errorf("topology: FreezeView: node %d lists neighbor %d outside [0, %d)", i, nb, n)
			}
			c.edges[off] = nb
			off++
		}
	}
	c.offsets[n] = off
	return c, nil
}

// growCap returns s resized to length n, reusing its backing array when
// it is large enough.
func growCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Clone returns a deep copy with fresh backing arrays — a snapshot of
// the snapshot, immune to a later FreezeInto over the receiver.
// Epoch-replay tests use it to keep every published adjacency
// comparable after its buffer re-enters rotation.
func (c *CSR) Clone() *CSR {
	return &CSR{
		offsets: append([]int32(nil), c.offsets...),
		edges:   append([]NodeID(nil), c.edges...),
	}
}

// Len returns the number of nodes in the snapshot.
func (c *CSR) Len() int { return len(c.offsets) - 1 }

// EdgeCount returns the total number of directed edges.
func (c *CSR) EdgeCount() int { return len(c.edges) }

// Out returns node id's outgoing neighbors in the source network's
// insertion order. The slice aliases the snapshot's flat edge array;
// callers must not mutate it.
func (c *CSR) Out(id NodeID) []NodeID {
	return c.edges[c.offsets[id]:c.offsets[id+1]]
}

// Online implements core.Graph: every snapshotted node participates.
// Liveness churn belongs to the mutable layer above; re-freeze (or keep
// the Network view) when it matters.
func (c *CSR) Online(NodeID) bool { return true }

// Degree returns the outgoing degree of id.
func (c *CSR) Degree(id NodeID) int {
	return int(c.offsets[id+1] - c.offsets[id])
}
