package live

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

// The neighbor-update protocol (Algo 4 over messages). Each of the
// first four tests pins one way a node's list can go wrong; handle runs
// under the node's lock through do, so the envelope is processed before
// the assertion reads the list.

func TestInviteSendFailureLeavesNoLink(t *testing.T) {
	nodes, tr := cluster(t, 2, 2, 2, 0)
	nodes[0].do(func(st *state) { st.ledger.Touch(1).Benefit = 5 })
	tr.Unregister(1)
	nodes[0].Reconfigure()
	if got := nodes[0].Neighbors(); len(got) != 0 {
		t.Fatalf("inviter lists %v although its invitation never left", got)
	}
}

func TestInviteFromListedPeerEvictsNobody(t *testing.T) {
	nodes, _ := cluster(t, 3, 2, 2, 0)
	link(nodes[0], nodes[1])
	link(nodes[0], nodes[2])
	nodes[0].do(func(st *state) {
		st.ledger.Touch(1).Benefit = 5 // 2 is the least beneficial neighbor
		nodes[0].handle(st, Envelope{Type: MsgInvite, From: 1})
	})
	if got := nodes[0].Neighbors(); !slices.Equal(got, []topology.NodeID{1, 2}) {
		t.Fatalf("invite from listed peer 1 turned [1 2] into %v", got)
	}
}

func TestSelfInviteRefused(t *testing.T) {
	nodes, _ := cluster(t, 2, 2, 2, 0)
	link(nodes[0], nodes[1])
	nodes[0].do(func(st *state) {
		nodes[0].handle(st, Envelope{Type: MsgInvite, From: 0})
	})
	if got := nodes[0].Neighbors(); !slices.Equal(got, []topology.NodeID{1}) {
		t.Fatalf("invite from itself turned [1] into %v", got)
	}
}

func TestUnsolicitedAcceptIsEvicted(t *testing.T) {
	nodes, _ := cluster(t, 2, 2, 2, 0)
	nodes[1].AddNeighbor(0) // node 1 believes it accepted an invitation from 0
	nodes[0].do(func(st *state) {
		nodes[0].handle(st, Envelope{Type: MsgInviteReply, From: 1, Accept: true})
	})
	if hasNeighbor(nodes[0], 1) {
		t.Fatal("an accepting reply nobody asked for made a link")
	}
	deadline := time.After(2 * time.Second)
	for hasNeighbor(nodes[1], 0) {
		select {
		case <-deadline:
			t.Fatal("the replying node was never told to drop its half of the link")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestStaleAcceptAfterEvictionMakesNoLink: node 0 has invited 1 and 1
// has accepted, but before 1's accept arrives, crossing invitations
// link the two and a third node's invitation makes 0 evict 1. The
// accept predates the eviction, so it must not link 0 to 1 again: 1
// drops its half when the eviction reaches it.
func TestStaleAcceptAfterEvictionMakesNoLink(t *testing.T) {
	nodes, _ := cluster(t, 3, 1, 2, 0)
	nodes[1].AddNeighbor(0) // 1 accepted 0's invitation; its reply is in flight
	nodes[0].do(func(st *state) {
		st.invited = 1
		st.ledger.Touch(1).Benefit = 5
		nodes[0].handle(st, Envelope{Type: MsgInvite, From: 1}) // crossing invite: 0 links 1
		nodes[0].handle(st, Envelope{Type: MsgInvite, From: 2}) // full: 0 evicts 1 for 2
		nodes[0].handle(st, Envelope{Type: MsgInviteReply, From: 1, Accept: true})
	})
	lists := settle(nodes)
	for i, l := range lists {
		for _, p := range l {
			if !slices.Contains(lists[p], topology.NodeID(i)) {
				t.Fatalf("node %d lists %d, which lists %v", i, p, lists[p])
			}
		}
	}
}

// TestQuickReconfigureKeepsLinksSymmetric is the live twin of core's
// TestQuickReconfigurePreservesConsistency: on a small ChanTransport
// cluster, queries (which feed the ledgers and, past θ, reconfigure
// their origins) and forced reconfigurations run concurrently. Once the
// cluster is quiet, every link is listed at both ends, no list exceeds
// its capacity and no node lists itself.
func TestQuickReconfigureKeepsLinksSymmetric(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			const n, capacity, keys = 12, 3, 16
			r := rng.New(seed)
			stats := &NodeStats{}
			tr := NewChanTransport()
			nodes := make([]*Node, n)
			for i := range nodes {
				store := MapStore{}
				for k := 0; k < 3; k++ {
					store.Add(core.Key(r.Intn(keys)))
				}
				nodes[i] = NewNode(Config{
					ID: topology.NodeID(i), Neighbors: capacity, TTL: 3,
					Transport: tr, Store: store, Class: netsim.Cable,
					ReconfigThreshold: 2, Stats: stats,
				})
				tr.Attach(nodes[i])
				nodes[i].Start()
			}
			t.Cleanup(func() {
				for _, nd := range nodes {
					nd.Close()
				}
			})
			degree := make([]int, n)
			for e := 0; e < 2*n; e++ {
				a, b := r.Intn(n), r.Intn(n)
				if a != b && degree[a] < capacity && degree[b] < capacity && !hasNeighbor(nodes[a], topology.NodeID(b)) {
					link(nodes[a], nodes[b])
					degree[a]++
					degree[b]++
				}
			}

			initial := settle(nodes)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wr := r.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for op := 0; op < 40; op++ {
						nd := nodes[wr.Intn(n)]
						if wr.Intn(4) == 0 {
							nd.Reconfigure()
						} else {
							search(nd, core.Key(wr.Intn(keys)), 200*time.Millisecond)
						}
					}
				}()
			}
			wg.Wait()

			lists := settle(nodes)
			if slices.EqualFunc(initial, lists, slices.Equal) {
				t.Fatal("no list changed: the run exercised no swap")
			}
			if f := stats.SendFailed.Load() + stats.InboxDropped.Load(); f != 0 {
				t.Fatalf("%d envelopes lost: the run was not loss-free", f)
			}
			for i, l := range lists {
				if len(l) > capacity {
					t.Errorf("node %d lists %v, over capacity %d", i, l, capacity)
				}
				for _, p := range l {
					if int(p) == i {
						t.Errorf("node %d lists itself: %v", i, l)
					} else if !slices.Contains(lists[p], topology.NodeID(i)) {
						t.Errorf("node %d lists %d, which lists %v", i, p, lists[p])
					}
				}
			}
		})
	}
}

// settle returns every node's neighbor list once three snapshots taken
// 20 ms apart agree: the invitations, replies and evictions are done.
func settle(nodes []*Node) [][]topology.NodeID {
	snap := func() [][]topology.NodeID {
		out := make([][]topology.NodeID, len(nodes))
		for i, nd := range nodes {
			out[i] = nd.Neighbors()
		}
		return out
	}
	prev, same := snap(), 0
	for same < 2 {
		time.Sleep(20 * time.Millisecond)
		cur := snap()
		if slices.EqualFunc(prev, cur, slices.Equal) {
			same++
		} else {
			same = 0
		}
		prev = cur
	}
	return prev
}
