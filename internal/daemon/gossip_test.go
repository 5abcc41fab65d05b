package daemon

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// mesh is a transport-free cluster of gossip states for the property
// tests: exchanges are direct method calls instead of HTTP.
type mesh struct {
	gs     []*Gossip
	byName map[string]*Gossip
	// reach simulates partitions: reach[i][j] reports whether member i
	// can currently talk to member j. nil means full connectivity.
	reach func(from, to string) bool
}

func newMesh(n int) *mesh {
	m := &mesh{byName: make(map[string]*Gossip, n)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%02d", i)
		g := NewGossip(Member{Name: name, HTTP: name + ":0", BaseID: i, Nodes: 1})
		m.gs = append(m.gs, g)
		m.byName[name] = g
	}
	return m
}

// round runs one gossip round for every member, mirroring the server's
// loop: beat, contact the seed list plus a random fanout of known
// peers, push-pull with each reachable one.
func (m *mesh) round(seeds []string, fanout int, stream *rng.Stream) {
	for _, g := range m.gs {
		g.Beat()
		self := g.Self().Name
		targets := map[string]struct{}{}
		for _, s := range seeds {
			targets[s] = struct{}{}
		}
		for _, p := range g.Targets(fanout, stream.Intn) {
			targets[p.Name] = struct{}{}
		}
		delete(targets, self)
		for name := range targets {
			peer, ok := m.byName[name]
			if !ok || (m.reach != nil && !m.reach(self, name)) {
				continue
			}
			g.Absorb(peer.Exchange(g.Snapshot()))
		}
	}
}

// converged reports whether every member of gs sees want members.
func converged(gs []*Gossip, want int) bool {
	for _, g := range gs {
		if len(g.Snapshot()) != want {
			return false
		}
	}
	return true
}

// roundsToConverge drives rounds until every member's view holds want
// members, returning the round count (or failing past maxRounds).
func (m *mesh) roundsToConverge(t *testing.T, seeds []string, fanout, want, maxRounds int, stream *rng.Stream) int {
	t.Helper()
	for r := 1; r <= maxRounds; r++ {
		m.round(seeds, fanout, stream)
		if converged(m.gs, want) {
			return r
		}
	}
	for _, g := range m.gs {
		if len(g.Snapshot()) != want {
			t.Logf("%s sees %d/%d members", g.Self().Name, len(g.Snapshot()), want)
		}
	}
	t.Fatalf("no convergence to %d members within %d rounds", want, maxRounds)
	return 0
}

// TestGossipConvergesFromSingleSeed is the bootstrap property: N
// members that each know only one seed address reach full membership
// in a small, bounded number of push-pull rounds.
func TestGossipConvergesFromSingleSeed(t *testing.T) {
	for _, n := range []int{4, 16, 48} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := newMesh(n)
			stream := rng.New(uint64(n))
			rounds := m.roundsToConverge(t, []string{"m00"}, 2, n, 10, stream)
			// Push-pull through a shared seed is near-instant: the seed
			// learns everyone in round 1, everyone learns the rest by
			// round 2; leave slack for unlucky orderings.
			if rounds > 4 {
				t.Fatalf("n=%d converged in %d rounds, want <= 4", n, rounds)
			}
		})
	}
}

// TestGossipConvergesSeedless checks the steady-state regime: once
// everyone knows *someone* (a chain: i knows i-1), fanout-2 push-pull
// alone reaches full membership in O(log n)-ish rounds with no seed
// list at all.
func TestGossipConvergesSeedless(t *testing.T) {
	const n = 32
	m := newMesh(n)
	for i := 1; i < n; i++ {
		m.gs[i].Absorb(View{m.gs[i-1].Self().Name: m.gs[i-1].Self()})
	}
	stream := rng.New(99)
	rounds := m.roundsToConverge(t, nil, 2, n, 40, stream)
	t.Logf("seedless chain of %d converged in %d rounds", n, rounds)
}

// TestGossipPartitionRejoin: two halves converge independently while
// partitioned, see only their own half, and heal to full membership in
// bounded rounds once the partition lifts.
func TestGossipPartitionRejoin(t *testing.T) {
	const n = 16
	m := newMesh(n)
	side := func(name string) int {
		if name < "m08" {
			return 0
		}
		return 1
	}
	m.reach = func(from, to string) bool { return side(from) == side(to) }

	stream := rng.New(7)
	for r := 0; r < 10; r++ {
		// Each side bootstraps off its own seed; cross-side contact is
		// attempted (the seed lists name both) but the partition drops it.
		m.round([]string{"m00", "m08"}, 2, stream)
	}
	for _, g := range m.gs {
		if got := len(g.Snapshot()); got != n/2 {
			t.Fatalf("%s sees %d members under partition, want %d", g.Self().Name, got, n/2)
		}
	}

	m.reach = nil // heal
	rounds := m.roundsToConverge(t, []string{"m00", "m08"}, 2, n, 10, stream)
	t.Logf("rejoined to %d members in %d rounds after heal", n, rounds)
}

// TestViewMergeNewerBeatWins: merge adopts unknown members and only
// replaces known ones when the incoming heartbeat is strictly newer.
func TestViewMergeNewerBeatWins(t *testing.T) {
	v := View{
		"a": {Name: "a", Beat: 5, HTTP: "old"},
		"b": {Name: "b", Beat: 2},
	}
	changed := v.Merge(View{
		"a": {Name: "a", Beat: 7, HTTP: "new"}, // newer: replaces
		"b": {Name: "b", Beat: 2, HTTP: "x"},   // equal: kept
		"c": {Name: "c", Beat: 1},              // unknown: adopted
	})
	if !changed {
		t.Fatal("merge with newer and unknown entries reported no change")
	}
	if v["a"].HTTP != "new" || v["a"].Beat != 7 {
		t.Fatalf("newer beat did not replace: %+v", v["a"])
	}
	if v["b"].HTTP != "" {
		t.Fatalf("equal beat replaced entry: %+v", v["b"])
	}
	if _, ok := v["c"]; !ok {
		t.Fatal("unknown member not adopted")
	}
	if v.Merge(View{"a": {Name: "a", Beat: 3}}) {
		t.Fatal("stale merge reported a change")
	}
}

// TestGossipTargetsExcludesSelf: peer sampling never returns the local
// member and respects the fanout bound.
func TestGossipTargetsExcludesSelf(t *testing.T) {
	m := newMesh(8)
	g := m.gs[3]
	for _, peer := range m.gs {
		g.Absorb(View{peer.Self().Name: peer.Self()})
	}
	stream := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		targets := g.Targets(3, stream.Intn)
		if len(targets) != 3 {
			t.Fatalf("got %d targets, want 3", len(targets))
		}
		seen := map[string]bool{}
		for _, p := range targets {
			if p.Name == "m03" {
				t.Fatal("Targets returned self")
			}
			if seen[p.Name] {
				t.Fatalf("duplicate target %s", p.Name)
			}
			seen[p.Name] = true
		}
	}
	if got := g.Targets(99, stream.Intn); len(got) != 7 {
		t.Fatalf("oversized fanout returned %d peers, want all 7 others", len(got))
	}
}

// TestGossipVersionMonotone: every local view change bumps the epoch.
func TestGossipVersionMonotone(t *testing.T) {
	g := NewGossip(Member{Name: "a"})
	v0 := g.Version()
	g.Beat()
	v1 := g.Version()
	if v1 <= v0 {
		t.Fatalf("Beat did not bump version: %d -> %d", v0, v1)
	}
	g.Absorb(View{"b": {Name: "b", Beat: 1}})
	v2 := g.Version()
	if v2 <= v1 {
		t.Fatalf("Absorb of a new member did not bump version: %d -> %d", v1, v2)
	}
	g.Absorb(View{"b": {Name: "b", Beat: 1}})
	if got := g.Version(); got != v2 {
		t.Fatalf("no-op absorb bumped version: %d -> %d", v2, got)
	}
}

// TestViewMergeIsASemilattice: anti-entropy converges whatever order
// views meet in because Merge is a join — commutative, associative and
// idempotent. The views are drawn under the protocol's one invariant: a
// (name, beat) pair names one entry, since only the member itself writes
// its entry and bumps its beat whenever it does.
func TestViewMergeIsASemilattice(t *testing.T) {
	stream := rng.New(99)
	randView := func() View {
		v := View{}
		for i, n := 0, stream.Intn(6); i < n; i++ {
			name := fmt.Sprintf("m%d", stream.Intn(5))
			beat := uint64(stream.Intn(4))
			v[name] = Member{Name: name, HTTP: fmt.Sprintf("%s@%d", name, beat), BaseID: int(beat), Beat: beat}
		}
		return v
	}
	merged := func(views ...View) View {
		out := View{}
		for _, v := range views {
			out.Merge(v)
		}
		return out
	}
	same := func(a, b View) bool {
		if len(a) != len(b) {
			return false
		}
		for k, m := range a {
			if o, ok := b[k]; !ok || o.HTTP != m.HTTP || o.Beat != m.Beat || o.BaseID != m.BaseID {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2000; i++ {
		a, b, c := randView(), randView(), randView()
		if !same(merged(a, b), merged(b, a)) {
			t.Fatalf("not commutative: %v, %v", a, b)
		}
		if !same(merged(merged(a, b), c), merged(a, merged(b, c))) {
			t.Fatalf("not associative: %v, %v, %v", a, b, c)
		}
		ab := merged(a, b)
		if ab.Merge(b) || ab.Merge(a) || !same(ab, merged(a, b)) {
			t.Fatalf("not idempotent: %v, %v", a, b)
		}
	}
}
