package topology

// OnlineView adapts a Network plus a liveness mask to the graph shape
// the cascade core searches (Out + Online). Before it existed, every
// simulation application hand-rolled the same adapter (gnutella's
// simGraph, webcache's proxyGraph, peerolap's peerGraph); the session
// driver now builds one OnlineView per run and shares it between the
// search engine and the application's own liveness checks.
//
// The view holds live references: topology changes to Net and flips of
// Mask entries are visible to subsequent calls immediately, which is
// exactly what churning simulations need. It is not safe for
// concurrent mutation; the single-threaded simulator is the intended
// producer.
type OnlineView struct {
	// Net is the neighbor graph being searched.
	Net *Network
	// Mask records per-node liveness, indexed by NodeID. A nil Mask
	// means every node is permanently online (the no-churn case: web
	// proxies, OLAP workstations).
	Mask []bool
}

// Out returns id's outgoing neighbors (shared backing array).
func (v *OnlineView) Out(id NodeID) []NodeID { return v.Net.Out(id) }

// Online reports whether id currently participates.
func (v *OnlineView) Online(id NodeID) bool { return v.Mask == nil || v.Mask[id] }
