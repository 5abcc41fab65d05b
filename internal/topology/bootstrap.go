package topology

// Bootstrap strategies: how nodes obtain their initial neighbors.
//
// Gnutella's join protocol (Section 4: "when a node logs in, it first
// contacts a specialized server and retrieves a number of addresses of
// other nodes that are currently online; the neighborhood list is then
// selected from these nodes") is modeled by RandomAttach over the set
// of currently-online nodes — both the paper's static baseline and the
// dynamic variant start from this purely random wiring.

// IntSource provides uniform integers; satisfied by rng.Stream.Intn.
type IntSource func(n int) int

// RandomAttach connects node id to up to k distinct random candidates
// (respecting capacities and the relation regime). It returns the
// number of edges actually created. candidates must not contain id
// duplicates are tolerated but waste attempts.
func RandomAttach(net *Network, id NodeID, candidates []NodeID, k int, intn IntSource) int {
	if k <= 0 || len(candidates) == 0 {
		return 0
	}
	added := 0
	// Work on a private permutation so retries never loop forever.
	perm := make([]NodeID, len(candidates))
	copy(perm, candidates)
	for i := len(perm) - 1; i > 0; i-- {
		j := intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, c := range perm {
		if added >= k {
			break
		}
		if c == id {
			continue
		}
		if net.Connect(id, c) {
			added++
		}
	}
	return added
}

// RandomWire bootstraps an entire network: every node attaches to k
// random others. Nodes are processed in ID order for determinism. In
// the Symmetric regime the achieved degree can be below k for the last
// nodes processed (their candidates may be full) — exactly the
// situation of a Gnutella node that finds fewer free slots.
func RandomWire(net *Network, k int, intn IntSource) {
	all := make([]NodeID, net.Len())
	for i := range all {
		all[i] = NodeID(i)
	}
	for i := 0; i < net.Len(); i++ {
		id := NodeID(i)
		need := k - net.Node(id).Out.Len()
		if need > 0 {
			RandomAttach(net, id, all, need, intn)
		}
	}
}
