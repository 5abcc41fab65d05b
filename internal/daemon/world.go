package daemon

import (
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/topology"
)

// World is the deterministic cluster universe: the wired overlay graph
// and the key placement, derived purely from (Seed, Nodes, Degree,
// Keys, Replicas). Every dsearchd process of one cluster builds the
// same World from its config and wires only its own shard of live
// nodes — no wiring protocol crosses the network, only envelope
// delivery does — and the parity harness rebuilds the same World to
// drive the internal/driver simulated twin over the identical graph
// and content. That shared construction is what makes "live hit-rate
// == simulated hit-rate" a meaningful equation rather than a
// statistical accident.
type World struct {
	Nodes    int
	Degree   int
	Keys     int
	Replicas int
	Seed     uint64

	// Net is the wired overlay: Symmetric relation, unbounded caps,
	// RandomWire(Degree) from the topology stream.
	Net *topology.Network
	// MaxDegree is the largest neighbor-list length after wiring (the
	// symmetric regime can push nodes past Degree); live nodes use it
	// as their neighbor capacity so no world edge is ever dropped.
	MaxDegree int

	// holders[i] is node i's content. The live node hosting i reads
	// the same set as its store (StoreFor), so a process holds the
	// placement once.
	holders []live.MapStore
	plan    *rng.Stream
}

// QuerySpec is one entry of the deterministic query plan.
type QuerySpec struct {
	Key    core.Key
	Origin topology.NodeID
}

// BuildWorld derives the world. The stream-split layout is fixed —
// topology first, placement second, query plan third — so the same
// parameters always yield the same graph, content and plan.
func BuildWorld(seed uint64, nodes, degree, keys, replicas int) *World {
	root := rng.New(seed)
	topoStream := root.Split()
	placeStream := root.Split()
	planStream := root.Split()

	w := &World{
		Nodes: nodes, Degree: degree, Keys: keys, Replicas: replicas,
		Seed:    seed,
		Net:     topology.NewNetwork(topology.Symmetric, nodes, 0, 0),
		holders: make([]live.MapStore, nodes),
		plan:    planStream,
	}
	topology.RandomWire(w.Net, degree, topoStream.Intn)
	for i := range w.holders {
		w.holders[i] = live.MapStore{}
		if l := len(w.Net.Out(topology.NodeID(i))); l > w.MaxDegree {
			w.MaxDegree = l
		}
	}
	for k := 0; k < keys; k++ {
		for r := 0; r < replicas; r++ {
			w.holders[placeStream.Intn(nodes)].Add(core.Key(k))
		}
	}
	return w
}

// HasContent implements core.Content.
func (w *World) HasContent(id topology.NodeID, key core.Key) bool {
	return w.holders[id].Has(key)
}

// StoreFor returns node id's live content store: the world's own set,
// not a copy. A live node only reads its store, so the node and the
// world share it.
func (w *World) StoreFor(id topology.NodeID) live.MapStore { return w.holders[id] }

// WireInto replays the world's adjacency into a fresh network (the
// simulated twin's). dst must be Symmetric with room for MaxDegree
// neighbors; duplicate-edge Connect failures are expected (each
// symmetric edge is visited from both endpoints).
func (w *World) WireInto(dst *topology.Network) {
	for i := 0; i < w.Nodes; i++ {
		id := topology.NodeID(i)
		for _, nb := range w.Net.Out(id) {
			dst.Connect(id, nb)
		}
	}
}

// QueryPlan draws the next n entries of the deterministic query plan:
// uniform keys over the catalog, uniform origins over the cluster.
// Consecutive calls continue the same sequence; two Worlds built from
// the same parameters produce the same plan.
func (w *World) QueryPlan(n int) []QuerySpec {
	out := make([]QuerySpec, n)
	for i := range out {
		out[i] = QuerySpec{
			Key:    core.Key(w.plan.Intn(w.Keys)),
			Origin: topology.NodeID(w.plan.Intn(w.Nodes)),
		}
	}
	return out
}
