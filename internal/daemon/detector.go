package daemon

import "sort"

// MemberStatus is a failure detector verdict about one member.
type MemberStatus string

// Detector verdicts. A member is Alive while its heartbeat keeps
// advancing, Suspect once it has been silent for SuspectAfter local
// rounds, and Dead (evicted from the view, remembered by a tombstone)
// after EvictAfter rounds of silence.
const (
	StatusAlive   MemberStatus = "alive"
	StatusSuspect MemberStatus = "suspect"
	StatusDead    MemberStatus = "dead"
)

// Detection parameterizes the heartbeat failure detector. All spans
// are in local gossip rounds (one Tick per round), so the wall-clock
// thresholds scale with the configured gossip interval.
type Detection struct {
	// SuspectAfter is how many rounds without a heartbeat advance mark
	// a member suspect.
	SuspectAfter uint64
	// EvictAfter is how many silent rounds confirm death and evict the
	// member from the view (must exceed SuspectAfter).
	EvictAfter uint64
	// Amnesty is how many rounds an eviction tombstone blocks
	// re-adoption of beats at or below the evicted one. A member that
	// kept beating behind a partition returns immediately (its beat
	// outruns the tombstone); one that restarted from beat zero waits
	// out the amnesty window.
	Amnesty uint64
}

// DefaultDetection is the detector configuration servers start with:
// suspect at 3 silent rounds, evict at 6, tombstones expire after 12.
func DefaultDetection() Detection {
	return Detection{SuspectAfter: 3, EvictAfter: 6, Amnesty: 12}
}

// tombstone remembers an eviction: entries with Beat <= beat are
// rejected until round expire.
type tombstone struct {
	beat   uint64
	expire uint64
}

// fdState is the detector side of a Gossip, guarded by Gossip.mu.
type fdState struct {
	det   Detection
	round uint64
	// lastBeat/lastAdvance track, per member, the newest heartbeat seen
	// and the local round it arrived in.
	lastBeat    map[string]uint64
	lastAdvance map[string]uint64
	tombs       map[string]tombstone
}

func newFDState(det Detection) fdState {
	return fdState{
		det:         det,
		lastBeat:    make(map[string]uint64),
		lastAdvance: make(map[string]uint64),
		tombs:       make(map[string]tombstone),
	}
}

// SetDetection replaces the detector thresholds (before serving
// starts; the zero SuspectAfter disables suspicion entirely).
func (g *Gossip) SetDetection(det Detection) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fd.det = det
}

// Tick advances the failure detector one round: members whose
// heartbeat has not advanced for EvictAfter rounds are evicted from
// the view behind a tombstone. It returns the names evicted this
// round, sorted. Tick is deliberately separate from Beat — Beat is
// "I am alive", Tick is "judge everyone else" — so transport-free
// gossip tests can drive rounds without a detector in the loop.
func (g *Gossip) Tick() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fd.round++
	now := g.fd.round
	// Expire old tombstones so restarted members can rejoin.
	for name, ts := range g.fd.tombs {
		if now >= ts.expire {
			delete(g.fd.tombs, name)
		}
	}
	if g.fd.det.EvictAfter == 0 {
		return nil
	}
	var evicted []string
	for name, m := range g.view {
		if name == g.self {
			continue
		}
		last, known := g.fd.lastAdvance[name]
		if !known || m.Beat > g.fd.lastBeat[name] {
			g.fd.lastBeat[name] = m.Beat
			g.fd.lastAdvance[name] = now
			continue
		}
		if now-last >= g.fd.det.EvictAfter {
			delete(g.view, name)
			delete(g.fd.lastBeat, name)
			delete(g.fd.lastAdvance, name)
			g.fd.tombs[name] = tombstone{beat: m.Beat, expire: now + g.fd.det.Amnesty}
			g.version++
			evicted = append(evicted, name)
		}
	}
	sort.Strings(evicted)
	return evicted
}

// statusLocked classifies one member under g.mu.
func (g *Gossip) statusLocked(name string) MemberStatus {
	if name == g.self {
		return StatusAlive
	}
	if _, dead := g.fd.tombs[name]; dead {
		return StatusDead
	}
	if g.fd.det.SuspectAfter == 0 {
		return StatusAlive
	}
	last, known := g.fd.lastAdvance[name]
	if !known {
		// Never judged yet (adopted this round); innocent until silent.
		return StatusAlive
	}
	silent := g.fd.round - last
	switch {
	case silent >= g.fd.det.EvictAfter:
		return StatusDead
	case silent >= g.fd.det.SuspectAfter:
		return StatusSuspect
	default:
		return StatusAlive
	}
}

// Statuses returns the verdict for every member currently in the view.
func (g *Gossip) Statuses() map[string]MemberStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]MemberStatus, len(g.view))
	for name := range g.view {
		out[name] = g.statusLocked(name)
	}
	return out
}

// Suspects returns the members currently suspected or worse, sorted —
// the query plane's signal that responses may be missing a shard.
func (g *Gossip) Suspects() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for name := range g.view {
		if name == g.self {
			continue
		}
		if s := g.statusLocked(name); s != StatusAlive {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// filterTombstoned drops remote entries an unexpired tombstone rejects
// (beat not newer than at eviction); an entry that outruns its
// tombstone earns amnesty and clears it. Called under g.mu.
func (g *Gossip) filterTombstoned(remote View) View {
	if len(g.fd.tombs) == 0 {
		return remote
	}
	out := make(View, len(remote))
	for name, m := range remote {
		if ts, dead := g.fd.tombs[name]; dead {
			if m.Beat <= ts.beat {
				continue
			}
			delete(g.fd.tombs, name) // rejoin amnesty: it is provably alive
		}
		out[name] = m
	}
	return out
}
