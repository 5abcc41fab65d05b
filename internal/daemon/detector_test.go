package daemon

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// dirRound is one gossip round with direction-aware delivery: member i
// contacting j pushes only when send(i,j) holds, and absorbs the
// response only when send(j,i) holds — the asymmetric-loss model the
// symmetric mesh.round cannot express. tick additionally runs the
// failure detector each round.
func (m *mesh) dirRound(seeds []string, fanout int, stream *rng.Stream, send func(from, to string) bool, tick bool) {
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
			if !ok {
				continue
			}
			if send != nil && !send(self, name) {
				continue // push lost
			}
			resp := peer.Exchange(g.Snapshot())
			if send != nil && !send(name, self) {
				continue // response lost
			}
			g.Absorb(resp)
		}
	}
	if tick {
		for _, g := range m.gs {
			g.Tick()
		}
	}
}

// A member that stops beating is suspected after SuspectAfter silent
// rounds and evicted from every view after EvictAfter, with the
// tombstone reporting it dead.
func TestDetectorSuspectsThenEvicts(t *testing.T) {
	const n = 4
	m := newMesh(n)
	stream := rng.New(5)
	alive := m.gs[:n-1]
	silent := m.gs[n-1].Self().Name

	// Full convergence first, everyone beating.
	for r := 0; r < 4; r++ {
		m.dirRound([]string{"m00"}, 2, stream, nil, true)
	}
	for _, g := range alive {
		if got := status(g, silent); got != StatusAlive {
			t.Fatalf("%s sees %s as %s before silence", g.Self().Name, silent, got)
		}
	}

	// Now m03 goes silent: only the first three run rounds.
	live := &mesh{gs: alive, byName: m.byName}
	sawSuspect := false
	for r := 1; r <= evictAfter+1; r++ {
		live.dirRound([]string{"m00"}, 2, stream, nil, true)
		if r >= suspectAfter && r < evictAfter {
			if got := status(alive[0], silent); got == StatusSuspect {
				sawSuspect = true
			}
		}
	}
	if !sawSuspect {
		t.Fatal("silent member never reached suspect status")
	}
	for _, g := range alive {
		if _, ok := g.Snapshot()[silent]; ok {
			t.Fatalf("%s still holds the dead member in view", g.Self().Name)
		}
		if got := status(g, silent); got != StatusDead {
			t.Fatalf("%s reports dead member as %s", g.Self().Name, got)
		}
	}
}

// An evicted member that kept beating behind its partition rejoins
// immediately once reachable: its heartbeat outruns the tombstone.
func TestDetectorRejoinAmnestyAfterPartition(t *testing.T) {
	const n = 4
	m := newMesh(n)
	stream := rng.New(11)
	flappy := m.gs[n-1].Self().Name

	for r := 0; r < 4; r++ {
		m.dirRound([]string{"m00"}, 2, stream, nil, true)
	}

	// Partition m03 both ways; everyone keeps beating and ticking.
	cut := func(a, b string) bool { return a != flappy && b != flappy }
	for r := 0; r < evictAfter+2; r++ {
		m.dirRound([]string{"m00"}, 2, stream, cut, true)
	}
	if _, ok := m.gs[0].Snapshot()[flappy]; ok {
		t.Fatal("partitioned member was not evicted")
	}
	// The flapping side evicted the healthy majority too — that is the
	// point of the test: the damage must not be permanent.
	if got := len(m.gs[n-1].Snapshot()); got != 1 {
		t.Fatalf("flapping member still sees %d members while cut off", got)
	}

	// Heal. Both sides' heartbeats kept advancing past the tombstoned
	// beats, so amnesty readmits everyone without waiting for expiry.
	for r := 0; r < 6; r++ {
		m.dirRound([]string{"m00"}, 2, stream, nil, true)
	}
	for _, g := range m.gs {
		if got := len(g.Snapshot()); got != n {
			t.Fatalf("%s sees %d/%d members after heal", g.Self().Name, got, n)
		}
		for name := range g.Snapshot() {
			if got := status(g, name); got != StatusAlive {
				t.Fatalf("%s sees %s as %s after heal", g.Self().Name, name, got)
			}
		}
	}
}

// A member that restarts from beat zero is blocked by its own
// tombstone only until the amnesty window expires, then rejoins.
func TestDetectorRestartRejoinsAfterAmnestyExpiry(t *testing.T) {
	g := NewGossip(Member{Name: "a"})
	g.Absorb(View{"b": {Name: "b", Beat: 50}})
	g.Tick() // records baseline
	for i := 1; i < evictAfter; i++ {
		if evicted := g.Tick(); len(evicted) != 0 {
			t.Fatalf("Tick evicted %v after %d silent rounds, want none before %d", evicted, i, evictAfter)
		}
	}
	evicted := g.Tick()
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("Tick evicted %v, want [b]", evicted)
	}

	// The restarted b comes back with a tiny beat: rejected while the
	// tombstone lives.
	g.Absorb(View{"b": {Name: "b", Beat: 1}})
	if _, ok := g.Snapshot()["b"]; ok {
		t.Fatal("tombstone failed to block a stale rejoin")
	}
	// After Amnesty rounds the tombstone expires and the same entry is
	// welcome again.
	for i := 0; i < amnesty; i++ {
		g.Tick()
	}
	g.Absorb(View{"b": {Name: "b", Beat: 2}})
	if _, ok := g.Snapshot()["b"]; !ok {
		t.Fatal("expired tombstone still blocks rejoin")
	}
}

// One-way link loss between two non-seed members (m03 hears m04, m04
// never hears m03 directly) must not break convergence: m03's view and
// heartbeats reach m04 relayed through the seed, nobody is falsely
// evicted, and the view stays fully alive after heal.
func TestGossipAsymmetricPartitionConverges(t *testing.T) {
	const n = 6
	m := newMesh(n)
	stream := rng.New(23)
	oneWayLoss := func(from, to string) bool {
		return !(from == "m03" && to == "m04") // m03 -> m04 messages vanish
	}
	for r := 0; r < 8; r++ {
		m.dirRound([]string{"m00"}, 2, stream, oneWayLoss, true)
	}
	for _, g := range m.gs {
		if got := len(g.Snapshot()); got != n {
			t.Fatalf("%s sees %d/%d members under one-way loss", g.Self().Name, got, n)
		}
	}
	if got := status(m.byName["m04"], "m03"); got != StatusAlive {
		t.Fatalf("relayed heartbeats left m03 %s at m04", got)
	}

	// Heal and keep going: still converged, still all alive.
	for r := 0; r < 4; r++ {
		m.dirRound([]string{"m00"}, 2, stream, nil, true)
	}
	for _, g := range m.gs {
		for name := range g.Snapshot() {
			if got := status(g, name); got != StatusAlive {
				t.Fatalf("%s sees %s as %s after heal", g.Self().Name, name, got)
			}
		}
	}
}

// One-way loss on the bootstrap path itself (the seed never hears the
// joiner) isolates the joiner — nobody can relay a member the cluster
// has never heard of — but the moment the link heals, the cluster
// converges to one consistent view including it.
func TestGossipAsymmetricSeedLossHeals(t *testing.T) {
	const n = 4
	m := newMesh(n)
	stream := rng.New(29)
	loss := func(from, to string) bool {
		return !(from == "m01" && to == "m00") // the joiner's pushes vanish
	}
	for r := 0; r < 8; r++ {
		m.dirRound([]string{"m00"}, 2, stream, loss, true)
	}
	if got := len(m.byName["m01"].Snapshot()); got != 1 {
		t.Fatalf("unreachable joiner sees %d members, want isolation", got)
	}
	for _, g := range m.gs {
		if g.Self().Name == "m01" {
			continue
		}
		if got := len(g.Snapshot()); got != n-1 {
			t.Fatalf("%s sees %d members, want %d (joiner unheard)", g.Self().Name, got, n-1)
		}
	}

	// Heal: the joiner's next push reaches the seed and full membership
	// follows in bounded rounds with everyone alive.
	for r := 0; r < 6; r++ {
		m.dirRound([]string{"m00"}, 2, stream, nil, true)
	}
	for _, g := range m.gs {
		if got := len(g.Snapshot()); got != n {
			t.Fatalf("%s sees %d/%d members after heal", g.Self().Name, got, n)
		}
		for name := range g.Snapshot() {
			if got := status(g, name); got != StatusAlive {
				t.Fatalf("%s sees %s as %s after heal", g.Self().Name, name, got)
			}
		}
	}
}

// A repeatedly flapping node may evict and be evicted while cut off,
// but each heal must restore full mutual membership — no healthy peer
// stays permanently evicted anywhere.
func TestFlappingNodeNeverPermanentlyEvictsHealthyPeer(t *testing.T) {
	const n = 5
	m := newMesh(n)
	stream := rng.New(31)
	flappy := "m04"
	cut := func(a, b string) bool { return a != flappy && b != flappy }

	for r := 0; r < 4; r++ {
		m.dirRound([]string{"m00"}, 2, stream, nil, true)
	}
	for flap := 0; flap < 3; flap++ {
		for r := 0; r < evictAfter+2; r++ {
			m.dirRound([]string{"m00"}, 2, stream, cut, true)
		}
		for r := 0; r < 8; r++ {
			m.dirRound([]string{"m00"}, 2, stream, nil, true)
		}
		for _, g := range m.gs {
			if got := len(g.Snapshot()); got != n {
				t.Fatalf("flap %d: %s sees %d/%d members after heal",
					flap, g.Self().Name, got, n)
			}
		}
	}
}

// Statuses and Suspects track the detector verdicts coherently.
func TestStatusesAndSuspects(t *testing.T) {
	g := NewGossip(Member{Name: "a"})
	g.Absorb(View{"b": {Name: "b", Beat: 1}, "c": {Name: "c", Beat: 1}})
	g.Tick() // baseline for b and c
	// c keeps beating, b goes silent.
	for i := 0; i < 3; i++ {
		g.Absorb(View{"c": {Name: "c", Beat: uint64(2 + i)}})
		g.Tick()
	}
	st := g.Statuses()
	if st["a"] != StatusAlive || st["c"] != StatusAlive {
		t.Fatalf("healthy members misjudged: %v", st)
	}
	if st["b"] != StatusSuspect {
		t.Fatalf("silent member is %s, want suspect", st["b"])
	}
	if s := g.Suspects(); len(s) != 1 || s[0] != "b" {
		t.Fatalf("Suspects() = %v, want [b]", s)
	}
	if got, ok := st["nobody"]; ok {
		t.Fatalf("unknown member reported %s, want no verdict", got)
	}
}

// status is one member's verdict as g.Statuses reports it; a member
// gone from the view is dead.
func status(g *Gossip, name string) MemberStatus {
	if s, ok := g.Statuses()[name]; ok {
		return s
	}
	return StatusDead
}

// Sanity: fmt of statuses used in cluster JSON stays stable.
func TestMemberStatusStrings(t *testing.T) {
	for _, s := range []MemberStatus{StatusAlive, StatusSuspect, StatusDead} {
		if fmt.Sprint(s) == "" {
			t.Fatal("empty status string")
		}
	}
}
