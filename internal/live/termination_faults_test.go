package live_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/topology"
)

// floodOracle is the answer a flood must give: breadth-first from the
// origin over adj, a holder answers and does not forward, nobody
// forwards at ttl hops, the origin is never asked.
func floodOracle(adj [][]int, holds func(node int) bool, origin, ttl int) []int {
	dist := map[int]int{origin: 0}
	queue := []int{origin}
	var found []int
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if dist[cur] >= ttl {
			continue
		}
		for _, nb := range adj[cur] {
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = dist[cur] + 1
			if holds(nb) {
				found = append(found, nb)
				continue
			}
			queue = append(queue, nb)
		}
	}
	sort.Ints(found)
	return found
}

// TestExactSetsUnderDuplicationAndReordering: with 30% of all messages
// delivered twice and 20% overtaken by later traffic (nothing dropped),
// every query must still terminate by protocol with exactly the
// oracle's holder set — a duplicated or late ack or copy neither ends a
// flood early nor keeps it open.
func TestExactSetsUnderDuplicationAndReordering(t *testing.T) {
	const (
		n, degree, ttl = 30, 3, 3
		keys, replicas = 12, 4
	)
	r := rand.New(rand.NewSource(11))
	adj := make([][]int, n)
	connected := func(a, b int) bool {
		for _, v := range adj[a] {
			if v == b {
				return true
			}
		}
		return false
	}
	for a := 0; a < n; a++ {
		for len(adj[a]) < degree {
			if b := r.Intn(n); b != a && !connected(a, b) {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	stores := make([]live.MapStore, n)
	for i := range stores {
		stores[i] = live.MapStore{}
	}
	for k := 0; k < keys; k++ {
		for c := 0; c < replicas; c++ {
			stores[r.Intn(n)].Add(core.Key(k))
		}
	}

	fabric := live.NewChanTransport()
	faulty := faults.Wrap(fabric, faults.Config{Seed: 5, Dup: 0.3, Reorder: 0.2})
	stats := &live.NodeStats{}
	nodes := make([]*live.Node, n)
	for i := range nodes {
		nodes[i] = live.NewNode(live.Config{
			ID: topology.NodeID(i), Neighbors: n, TTL: ttl,
			Transport: faulty, Store: stores[i], Stats: stats,
		})
		fabric.Attach(nodes[i])
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for a := range adj {
		for _, b := range adj[a] {
			nodes[a].AddNeighbor(topology.NodeID(b))
		}
	}

	for origin := 0; origin < n; origin++ {
		for k := 0; k < keys; k++ {
			want := floodOracle(adj, func(v int) bool { return stores[v].Has(core.Key(k)) }, origin, ttl)
			hits, info := nodes[origin].QueryInfo(live.QueryOpts{Key: core.Key(k), Timeout: 5 * time.Second})
			if !info.Complete || info.Lost || info.Expired {
				t.Fatalf("origin %d key %d: info %+v, want Complete only", origin, k, info)
			}
			got := make([]int, len(hits))
			for i, h := range hits {
				got[i] = int(h.Holder)
			}
			sort.Ints(got)
			if !slices.Equal(got, want) {
				t.Fatalf("origin %d key %d: holders %v, want %v", origin, k, got, want)
			}
		}
	}
	fs := faulty.Stats()
	if fs.Duplicated.Load() == 0 || fs.Reordered.Load() == 0 || fs.Dropped.Load() != 0 {
		t.Fatalf("fault plane: %d duplicated, %d reordered, %d dropped",
			fs.Duplicated.Load(), fs.Reordered.Load(), fs.Dropped.Load())
	}
	if stats.QueriesWindowFallback.Load() != 0 {
		t.Fatalf("%d queries ended on the window", stats.QueriesWindowFallback.Load())
	}
}
