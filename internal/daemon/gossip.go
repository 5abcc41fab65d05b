package daemon

import (
	"sort"
	"sync"
)

// Member describes one dsearchd process in the membership protocol.
type Member struct {
	// Name is the process's cluster-unique identity.
	Name string `json:"name"`
	// HTTP is the process's control-plane base address (host:port).
	HTTP string `json:"http"`
	// BaseID and Nodes give the dense live-node ID range this process
	// hosts: [BaseID, BaseID+Nodes).
	BaseID int `json:"base_id"`
	Nodes  int `json:"nodes"`
	// NodeAddrs lists per-local-node envelope listener addresses in
	// local-index order (TCP transport; empty for in-process fabrics).
	NodeAddrs []string `json:"node_addrs,omitempty"`
	// Beat is the member's heartbeat counter: its own liveness tick,
	// as last observed by whoever holds this entry. Higher wins on
	// merge, so refreshed entries displace stale ones.
	Beat uint64 `json:"beat"`
}

// View is a membership view keyed by member name. Views travel on the
// wire (POST /v1/gossip bodies and responses) as plain JSON objects.
type View map[string]Member

// Clone returns an independent copy.
func (v View) Clone() View {
	out := make(View, len(v))
	for k, m := range v {
		out[k] = m
	}
	return out
}

// Merge folds other into v: unknown members are adopted, known ones
// are replaced when the incoming heartbeat is strictly newer. It
// reports whether v changed.
func (v View) Merge(other View) bool {
	changed := false
	for name, m := range other {
		cur, ok := v[name]
		if !ok || m.Beat > cur.Beat {
			v[name] = m
			changed = true
		}
	}
	return changed
}

// Gossip is the anti-entropy membership state of one process: its own
// member entry plus everything it has heard. Bootstrap is a seed list
// of peer HTTP addresses (held by the Server, not here); steady state
// is periodic push-pull peer exchange — each round the process picks a
// few random members from its view, sends them its whole view and
// merges whatever they answer. Every view change bumps Version, the
// cluster epoch surfaced on GET /v1/cluster.
//
// The structure is deliberately transport-free: the convergence and
// partition/rejoin property tests drive Exchange directly, and the
// Server wires it to HTTP.
type Gossip struct {
	mu      sync.Mutex
	self    string
	view    View
	version uint64
	// fd is the heartbeat failure detector (detector.go): Tick drives
	// its round clock, merges consult its eviction tombstones.
	fd fdState
}

// NewGossip starts a membership view containing only self, with the
// default failure-detector thresholds (the detector stays inert until
// something calls Tick).
func NewGossip(self Member) *Gossip {
	g := &Gossip{
		self:    self.Name,
		view:    View{self.Name: self},
		version: 1,
		fd:      newFDState(DefaultDetection()),
	}
	return g
}

// Self returns the current self entry.
func (g *Gossip) Self() Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.view[g.self]
}

// Beat advances the self heartbeat, refreshing this process's own
// entry so peers' merges keep it newest-wins fresh.
func (g *Gossip) Beat() {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.view[g.self]
	m.Beat++
	g.view[g.self] = m
	g.version++
}

// Exchange is one push-pull step from the receiving side: merge the
// remote view, return a snapshot of the (possibly updated) local view
// for the caller to merge in turn.
func (g *Gossip) Exchange(remote View) View {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.view.Merge(g.filterTombstoned(remote)) {
		g.version++
	}
	return g.view.Clone()
}

// Absorb merges a view learned out-of-band (a gossip response).
func (g *Gossip) Absorb(remote View) {
	g.Exchange(remote)
}

// Snapshot returns a copy of the current view.
func (g *Gossip) Snapshot() View {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.view.Clone()
}

// Members returns the view sorted by name.
func (g *Gossip) Members() []Member {
	v := g.Snapshot()
	out := make([]Member, 0, len(v))
	for _, m := range v {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Version returns the cluster epoch: a counter bumped by every local
// view change (including own heartbeats), so it is monotone per
// process, not globally agreed.
func (g *Gossip) Version() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version
}

// Targets picks up to fanout distinct random members other than self,
// drawing indices from intn.
func (g *Gossip) Targets(fanout int, intn func(int) int) []Member {
	peers := g.Members()
	// Drop self.
	for i, m := range peers {
		if m.Name == g.self {
			peers = append(peers[:i], peers[i+1:]...)
			break
		}
	}
	if fanout >= len(peers) {
		return peers
	}
	// Partial Fisher-Yates over the prefix.
	for i := 0; i < fanout; i++ {
		j := i + intn(len(peers)-i)
		peers[i], peers[j] = peers[j], peers[i]
	}
	return peers[:fanout]
}
