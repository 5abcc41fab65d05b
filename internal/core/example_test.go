package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ringEnv is a ten-repository ring (two neighbors each, the capacity)
// where node 5 holds the hot item; it is both the search world and the
// SymmetricEnv the updater reconfigures.
type ringEnv struct {
	net     *topology.Network
	ledgers []*stats.Ledger
}

const hotItem core.Key = 42

func (e *ringEnv) Out(id topology.NodeID) []topology.NodeID { return e.net.Out(id) }
func (e *ringEnv) Online(topology.NodeID) bool              { return true }
func (e *ringEnv) HasContent(id topology.NodeID, key core.Key) bool {
	return id == 5 && key == hotItem
}
func (e *ringEnv) Net() *topology.Network                  { return e.net }
func (e *ringEnv) Ledger(id topology.NodeID) *stats.Ledger { return e.ledgers[id] }
func (e *ringEnv) ResetCounter(topology.NodeID)            {}
func (e *ringEnv) Control(kind netsim.MessageKind, from, to topology.NodeID) {
	fmt.Printf("  %v %d -> %d\n", kind, from, to)
}

// ExampleSymmetricUpdater is the framework's loop in one place: a
// search (Algo 1) teaches node 0 where the item is, the statistics go
// into its ledger, and one symmetric reconfiguration (Algo 4) makes the
// holder a neighbor, turning a 5-hop search into a 1-hop one.
func ExampleSymmetricUpdater() {
	e := &ringEnv{net: topology.NewNetwork(topology.Symmetric, 10, 2, 2)}
	for i := 0; i < 10; i++ {
		e.ledgers = append(e.ledgers, stats.NewLedger())
		e.net.Connect(topology.NodeID(i), topology.NodeID((i+1)%10))
	}
	search := &core.Cascade{Graph: e, Content: e, Forward: core.Flood{}}
	q := &core.Query{ID: 1, Key: hotItem, Origin: 0, TTL: 7}

	out := search.Run(q)
	fmt.Printf("before: holder %d at %d hops, %d messages\n",
		out.Results[0].Holder, out.Results[0].Hops, out.Messages)

	for _, r := range out.Results {
		rec := e.ledgers[0].Touch(r.Holder)
		rec.Hits++
		rec.Benefit++
	}
	updater := &core.SymmetricUpdater{Benefit: stats.Cumulative{}, Capacity: 2, Invite: core.AlwaysAccept}
	rep := updater.Reconfigure(e, 0)
	fmt.Printf("reconfigured: accepted %v, evicted %v; node 0 now links %v (symmetric: %v)\n",
		rep.Accepted, rep.Evicted, e.net.Out(0), e.net.Consistent())

	out = search.Run(q)
	fmt.Printf("after: holder %d at %d hops, %d messages\n",
		out.Results[0].Holder, out.Results[0].Hops, out.Messages)
	// Output:
	// before: holder 5 at 5 hops, 10 messages
	//   invite 0 -> 5
	//   evict 0 -> 1
	//   evict 5 -> 4
	//   invite-reply 5 -> 0
	// reconfigured: accepted [5], evicted [1]; node 0 now links [9 5] (symmetric: true)
	// after: holder 5 at 1 hops, 6 messages
}
