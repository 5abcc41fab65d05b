package search_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/pkg/search"
)

// ringNet is the doc-example network: ten repositories in a ring,
// where node 5 holds the hot item.
type ringNet struct{}

const hotItem search.Key = 42

func (ringNet) Out(id search.NodeID) []search.NodeID {
	return []search.NodeID{(id + 1) % 10, (id + 9) % 10}
}
func (ringNet) Online(search.NodeID) bool { return true }
func (ringNet) HasContent(id search.NodeID, key search.Key) bool {
	return id == 5 && key == hotItem
}

// Example constructs an Engine over a ten-node ring and runs one
// search: the hot item sits five hops from the origin.
func Example() {
	eng, err := search.New(ringNet{},
		search.WithPolicy("flood"),
		search.WithTTL(7),
		search.WithDelay(func(_, _ search.NodeID) float64 { return 0.1 }))
	if err != nil {
		panic(err)
	}
	res, err := eng.Do(context.Background(), search.Query{Key: hotItem, Origin: 0})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d result(s), holder %d, %d hops, first after %.0f ms\n",
		len(res.Hits), res.Hits[0].Holder, res.Hits[0].Hops, res.FirstResultDelay*1000)
	// Output:
	// 1 result(s), holder 5, 5 hops, first after 1000 ms
}

// ExampleEngine_Batch runs a query list on a one-call Saturator;
// results come back in input order, identical to sequential Do.
func ExampleEngine_Batch() {
	eng, err := search.New(ringNet{}, search.WithTTL(7))
	if err != nil {
		panic(err)
	}
	queries := []search.Query{
		{ID: 1, Key: hotItem, Origin: 0},
		{ID: 2, Key: hotItem, Origin: 4},
		{ID: 3, Key: 777, Origin: 0}, // nobody holds this
	}
	results, err := eng.Batch(context.Background(), queries)
	if err != nil {
		panic(err)
	}
	for i, r := range results {
		fmt.Printf("query %d: found=%v in %d messages\n", queries[i].ID, r.Found(), r.Messages)
	}
	// Output:
	// query 1: found=true in 10 messages
	// query 2: found=true in 8 messages
	// query 3: found=false in 11 messages
}

// ExampleWithSnapshotStore serves queries through a snapshot store
// while the topology churns: every query pins one immutable CSR
// epoch, and publishing a re-frozen epoch is an atomic swap that
// never pauses serving.
func ExampleWithSnapshotStore() {
	// A mutable ten-node ring; node 5 holds the hot item.
	net := topology.NewNetwork(topology.Symmetric, 10, 4, 4)
	for i := 0; i < 10; i++ {
		net.Connect(topology.NodeID(i), topology.NodeID((i+1)%10))
	}
	store := topology.NewSnapshotStore(net) // epoch 1 = Freeze(net)

	eng, err := search.New(
		search.OverContent(core.ContentFunc(func(id search.NodeID, key search.Key) bool {
			return id == 5 && key == hotItem
		})),
		search.WithSnapshotStore(store),
		search.WithTTL(7))
	if err != nil {
		panic(err)
	}

	ctx := context.Background()
	res, err := eng.Do(ctx, search.Query{Key: hotItem, Origin: 0})
	if err != nil {
		panic(err)
	}
	fmt.Printf("epoch %d: holder %d at %d hops\n", res.Epoch, res.Hits[0].Holder, res.Hits[0].Hops)

	// Churn: wire a shortcut from the origin to the holder, publish a
	// new epoch. In-flight queries keep the epoch they pinned; the next
	// query sees the swap.
	store.Apply([]topology.Delta{{Op: topology.OpConnect, Src: 0, Dst: 5}})
	res, err = eng.Do(ctx, search.Query{Key: hotItem, Origin: 0})
	if err != nil {
		panic(err)
	}
	fmt.Printf("epoch %d: holder %d at %d hops\n", res.Epoch, res.Hits[0].Holder, res.Hits[0].Hops)
	// Output:
	// epoch 1: holder 5 at 5 hops
	// epoch 2: holder 5 at 1 hops
}

// ExampleEngine_Saturate keeps a resident worker shard serving across
// an epoch swap: the workers stay up while the store publishes, and
// the next batch runs on the fresh epoch.
func ExampleEngine_Saturate() {
	net := topology.NewNetwork(topology.Symmetric, 10, 4, 4)
	for i := 0; i < 10; i++ {
		net.Connect(topology.NodeID(i), topology.NodeID((i+1)%10))
	}
	store := topology.NewSnapshotStore(net)

	eng, err := search.New(
		search.OverContent(core.ContentFunc(func(id search.NodeID, key search.Key) bool {
			return id == 5 && key == hotItem
		})),
		search.WithSnapshotStore(store),
		search.WithTTL(7))
	if err != nil {
		panic(err)
	}
	sat, err := eng.Saturate(search.WithWorkers(2))
	if err != nil {
		panic(err)
	}
	defer sat.Close()

	queries := []search.Query{
		{ID: 1, Key: hotItem, Origin: 0},
		{ID: 2, Key: hotItem, Origin: 3},
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		results, err := sat.Run(ctx, queries)
		if err != nil {
			panic(err)
		}
		for i, r := range results {
			fmt.Printf("query %d: %d hops on epoch %d\n", queries[i].ID, r.Hits[0].Hops, r.Epoch)
		}
		// Zero-downtime churn between rounds: the workers never drain.
		store.Apply([]topology.Delta{{Op: topology.OpConnect, Src: 0, Dst: 5}})
	}
	// Output:
	// query 1: 5 hops on epoch 1
	// query 2: 2 hops on epoch 1
	// query 1: 1 hops on epoch 2
	// query 2: 2 hops on epoch 2
}

// ExamplePolicyByName resolves forward policies from configuration
// strings — every policy name round-trips, and a name outside the fixed
// set is an error that lists the known families.
func ExamplePolicyByName() {
	for _, name := range []string{"flood", "directed-bft-3"} {
		p, err := search.PolicyByName(name, search.PolicyEnv{})
		if err != nil {
			panic(err)
		}
		fmt.Println(p.Name())
	}
	_, err := search.PolicyByName("carrier-pigeon", search.PolicyEnv{})
	fmt.Println(err)
	// Output:
	// flood
	// directed-bft-3
	// search: unknown policy "carrier-pigeon" (known: digest-guided, directed-bft-<k>, flood, random-<k>)
}
