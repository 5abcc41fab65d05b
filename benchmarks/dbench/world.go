package main

import (
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/topology"
)

// world is the benchmark's own picture of a network: who is connected
// to whom and who holds which key. The oracle reads only this, never
// the program's data structures.
type world struct {
	ttl  int
	keys int
	// adj[i] lists node i's neighbours (symmetric).
	adj [][]int32
	// held[i] lists the keys node i holds, unsorted; lists are a handful
	// of entries long, so a scan beats a map.
	held [][]uint32
}

func (w *world) nodes() int { return len(w.adj) }

func (w *world) holds(node int, key uint32) bool {
	for _, k := range w.held[node] {
		if k == key {
			return true
		}
	}
	return false
}

// HasContent implements core.Content: the flat world's key placement is
// an input the engine is built over.
func (w *world) HasContent(id topology.NodeID, key core.Key) bool {
	return w.holds(int(id), uint32(key))
}

// newRand returns the deterministic generator every plan draws from.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// buildFlatWorld wires spec.Nodes nodes by letting each node connect to
// spec.Degree random others (symmetric edges, so the mean degree is
// twice that) and places spec.Keys keys on spec.Replicas random nodes
// each. It is O(nodes·degree): daemon.BuildWorld's RandomWire builds a
// candidate list per node and is quadratic, a minute at 100k nodes.
func buildFlatWorld(spec worldSpec, nodes int) *world {
	keys := spec.Keys * nodes / spec.Nodes
	if keys < 1 {
		keys = 1
	}
	w := &world{ttl: spec.TTL, keys: keys, adj: make([][]int32, nodes), held: make([][]uint32, nodes)}
	rTopo, rPlace := newRand(spec.Seed, 1), newRand(spec.Seed, 2)
	for i := 0; i < nodes; i++ {
		for d := 0; d < spec.Degree; d++ {
			j := rTopo.IntN(nodes)
			if j == i || w.connected(i, j) {
				continue
			}
			w.adj[i] = append(w.adj[i], int32(j))
			w.adj[j] = append(w.adj[j], int32(i))
		}
	}
	for k := 0; k < keys; k++ {
		for r := 0; r < spec.Replicas; r++ {
			if n := rPlace.IntN(nodes); !w.holds(n, uint32(k)) {
				w.held[n] = append(w.held[n], uint32(k))
			}
		}
	}
	return w
}

func (w *world) connected(a, b int) bool {
	for _, v := range w.adj[a] {
		if int(v) == b {
			return true
		}
	}
	return false
}

// parityWorld copies the daemon's deterministic world — the one every
// dsearchd of a cluster derives from its config — into the benchmark's
// own representation.
func parityWorld(spec worldSpec) *world {
	dw := daemon.BuildWorld(spec.Seed, spec.Nodes, spec.Degree, spec.Keys, spec.Replicas)
	w := &world{ttl: spec.TTL, keys: spec.Keys, adj: make([][]int32, spec.Nodes), held: make([][]uint32, spec.Nodes)}
	for i := 0; i < spec.Nodes; i++ {
		for _, nb := range dw.Net.Out(topology.NodeID(i)) {
			w.adj[i] = append(w.adj[i], int32(nb))
		}
		for k := 0; k < spec.Keys; k++ {
			if dw.HasContent(topology.NodeID(i), core.Key(k)) {
				w.held[i] = append(w.held[i], uint32(k))
			}
		}
	}
	return w
}

// query is one plan entry.
type query struct {
	origin int32
	key    uint32
}

// uniformQueries draws n queries with uniform origins and keys.
func (w *world) uniformQueries(r *rand.Rand, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{origin: int32(r.IntN(w.nodes())), key: uint32(r.IntN(w.keys))}
	}
	return qs
}

// allPairs lists every (origin, key) pair of a small world once, in a
// seeded order: the exactly uniform plan.
func (w *world) allPairs(r *rand.Rand) []query {
	qs := make([]query, 0, w.nodes()*w.keys)
	for o := 0; o < w.nodes(); o++ {
		for k := 0; k < w.keys; k++ {
			qs = append(qs, query{origin: int32(o), key: uint32(k)})
		}
	}
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}
