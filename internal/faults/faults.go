// Package faults is the deterministic fault-injection plane: it makes
// degraded networks a first-class, reproducible test condition instead
// of something CI hopes never happens.
//
// Three instruments share one seed discipline:
//
//   - Transport wraps any live.Transport and perturbs message delivery
//     — drop, duplication, extra delay, reordering — with per-link
//     decision streams derived from (seed, from, to, sequence). The
//     k-th message a link carries meets the same fate in every run at
//     every parallelism, because the decision is a pure function of
//     the link's identity and its own message counter, never of wall
//     clock or goroutine scheduling. The wrapper also enforces node
//     crashes and network partitions (messages to, from, or across
//     them are silently lost — the lossy semantics the protocol
//     already tolerates).
//
//   - LossyPolicy wraps a core.ForwardPolicy for the simulated engine:
//     each selected forwarding target survives with probability
//     1-rate, drawn from a deterministic stream, which models per-link
//     query loss inside the single-threaded cascade where outcomes
//     must stay byte-identical. The `faults` experiment family is
//     built on it.
//
//   - Schedule scripts node crash/restart (and partition/heal) events
//     against a Target — the in-process cluster (daemon.Server
//     implements Target) or a real dsearchd process driven over HTTP.
//     Schedules are generated from runner.DeriveSeed streams and
//     marshal to canonical JSON, so "the same seed reproduces the
//     identical fault schedule" is checkable byte-for-byte.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"

	"repro/internal/live"
)

// Config parameterizes the message-level faults of a Transport. Rates
// are per-message probabilities in [0,1); the zero value injects
// nothing (the wrapper becomes a pass-through with counters).
type Config struct {
	// Seed roots every per-link decision stream. Two Transports with
	// equal Config fate messages identically.
	Seed uint64 `json:"seed"`
	// Drop is the probability a message is silently lost.
	Drop float64 `json:"drop"`
	// Dup is the probability a message is delivered twice.
	Dup float64 `json:"dup"`
	// Reorder is the probability a message is deferred by ReorderDelay
	// so later traffic on its link overtakes it.
	Reorder float64 `json:"reorder"`
	// ReorderDelay is how long a reordered message is held (default
	// 2ms when Reorder > 0).
	ReorderDelay time.Duration `json:"-"`
	// DelayMin/DelayMax add uniform extra latency to every message when
	// DelayMax > 0 (a traffic-shaped link, not a fault schedule).
	DelayMin, DelayMax time.Duration `json:"-"`
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", c.Drop}, {"dup", c.Dup}, {"reorder", c.Reorder}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("faults: %s rate %v outside [0,1)", r.name, r.v)
		}
	}
	if c.DelayMax < c.DelayMin {
		return fmt.Errorf("faults: delay max %v < min %v", c.DelayMax, c.DelayMin)
	}
	return nil
}

// active reports whether any message-level fault can fire.
func (c Config) active() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.DelayMax > 0
}

// Stats counts what the injector did, safe to read concurrently.
type Stats struct {
	// Sent counts messages the fault plane ruled on — none while nothing
	// is armed: the pass-through path is the flood's hot path and writes
	// no shared counter. Dropped, Duplicated, Reordered and Delayed count
	// injected faults; Blocked counts messages lost to crashes or
	// partitions.
	Sent, Dropped, Duplicated, Reordered, Delayed, Blocked metrics.Counter
}

// Snapshot returns the counters as a map (the daemon folds it into
// /v1/stats).
func (s *Stats) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"faults_sent":       s.Sent.Load(),
		"faults_dropped":    s.Dropped.Load(),
		"faults_duplicated": s.Duplicated.Load(),
		"faults_reordered":  s.Reordered.Load(),
		"faults_delayed":    s.Delayed.Load(),
		"faults_blocked":    s.Blocked.Load(),
	}
}

// mix64 is the splitmix64 finalizer — the same mixer internal/rng
// uses, duplicated here so link decisions never consume (and therefore
// never perturb) any shared rng.Stream.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps 64 random bits to a float in [0,1).
func unit(bits uint64) float64 {
	return float64(bits>>11) / (1 << 53)
}

// Per-decision salts: one message draws three independent verdicts
// (drop, dup, reorder) from one (link, seq) pair.
const (
	saltDrop    = 0x9e3779b97f4a7c15
	saltDup     = 0xc2b2ae3d27d4eb4f
	saltReorder = 0x165667b19e3779f9
	saltDelay   = 0x27d4eb2f165667c5
)

// linkKey identifies one directed link.
type linkKey struct {
	from, to topology.NodeID
}

// linkState is a link's decision stream position.
type linkState struct {
	seed uint64
	seq  uint64
}

// Transport wraps an inner live.Transport with deterministic
// message-level fault injection plus crash and partition enforcement.
// It is safe for concurrent use; decisions on one link are serialized
// by the link's own counter, so each link's fault pattern is a pure
// function of Config and the link's send count.
type Transport struct {
	cfg   Config
	inner live.Transport
	stats Stats

	mu      sync.Mutex
	links   map[linkKey]*linkState
	crashed map[topology.NodeID]bool
	// group assigns nodes to partition sides; nil means no partition.
	group map[topology.NodeID]int
	// restricted is nonzero while any crash or partition is in force —
	// the cheap gate that lets the zero-fault Send path skip the mutex.
	restricted atomic.Int32
}

// Wrap returns a fault-injecting view of inner. It panics on an
// invalid Config (fault plans are test fixtures; failing loudly at
// construction beats silently serving a different experiment).
func Wrap(inner live.Transport, cfg Config) *Transport {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Reorder > 0 && cfg.ReorderDelay <= 0 {
		cfg.ReorderDelay = 2 * time.Millisecond
	}
	return &Transport{
		cfg:     cfg,
		inner:   inner,
		links:   make(map[linkKey]*linkState),
		crashed: make(map[topology.NodeID]bool),
	}
}

// Stats exposes the fault counters.
func (t *Transport) Stats() *Stats { return &t.stats }

// Crash makes a node unreachable: every message to or from it is
// blocked until Restart. Idempotent.
func (t *Transport) Crash(id topology.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.crashed[id] = true
	t.updateRestrictedLocked()
}

// Restart lifts a crash. Idempotent.
func (t *Transport) Restart(id topology.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.crashed, id)
	t.updateRestrictedLocked()
}

// updateRestrictedLocked recomputes the fast-path gate under t.mu.
func (t *Transport) updateRestrictedLocked() {
	if len(t.crashed) > 0 || t.group != nil {
		t.restricted.Store(1)
	} else {
		t.restricted.Store(0)
	}
}

// Partition splits the network into the given groups: messages between
// nodes of different groups (or from/to nodes in no group) are blocked
// until Heal.
func (t *Transport) Partition(groups [][]topology.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.group = make(map[topology.NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			t.group[id] = gi
		}
	}
	t.updateRestrictedLocked()
}

// Heal lifts the partition.
func (t *Transport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.group = nil
	t.updateRestrictedLocked()
}

// linkSeed derives the decision-stream root of one directed link.
func (t *Transport) linkSeed(from, to topology.NodeID) uint64 {
	return mix64(t.cfg.Seed ^ mix64(uint64(from)<<32|uint64(uint32(to))))
}

// verdict is one message's fate, drawn under the transport lock.
type verdict struct {
	blocked bool
	drop    bool
	dup     bool
	reorder bool
	delay   time.Duration
}

// decide draws the fate of the next message on link (from, to).
func (t *Transport) decide(from, to topology.NodeID) verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	var v verdict
	if t.crashed[from] || t.crashed[to] {
		v.blocked = true
		return v
	}
	if t.group != nil {
		gf, okf := t.group[from]
		gt, okt := t.group[to]
		if !okf || !okt || gf != gt {
			v.blocked = true
			return v
		}
	}
	if !t.cfg.active() {
		return v
	}
	k := linkKey{from, to}
	ls := t.links[k]
	if ls == nil {
		ls = &linkState{seed: t.linkSeed(from, to)}
		t.links[k] = ls
	}
	ls.seq++
	base := ls.seed + ls.seq
	v.drop = t.cfg.Drop > 0 && unit(mix64(base^saltDrop)) < t.cfg.Drop
	v.dup = t.cfg.Dup > 0 && unit(mix64(base^saltDup)) < t.cfg.Dup
	v.reorder = t.cfg.Reorder > 0 && unit(mix64(base^saltReorder)) < t.cfg.Reorder
	if t.cfg.DelayMax > 0 {
		span := t.cfg.DelayMax - t.cfg.DelayMin
		v.delay = t.cfg.DelayMin + time.Duration(unit(mix64(base^saltDelay))*float64(span))
	}
	return v
}

// Send implements live.Transport. Dropped, blocked and reordered-away
// messages report success: on a lossy network the sender cannot tell.
func (t *Transport) Send(to topology.NodeID, env live.Envelope) error {
	// Fast path: no fault can fire and no crash or partition is in
	// force — pure pass-through. restricted is a conservative flag (it
	// may lag a racing Crash by one in-flight message, which is
	// indistinguishable from the message having left just before the
	// crash), so the deterministic decision streams are untouched: they
	// only exist when cfg.active(), which never takes this path. The
	// path reads and writes nothing another core writes: a counter
	// bumped here by every actor of the process cost a tenth of the
	// daemon's CPU under a saturated flood.
	if !t.cfg.active() && t.restricted.Load() == 0 {
		return t.inner.Send(to, env)
	}
	t.stats.Sent.Inc()
	v := t.decide(env.From, to)
	switch {
	case v.blocked:
		t.stats.Blocked.Inc()
		return nil
	case v.drop:
		t.stats.Dropped.Inc()
		return nil
	}
	if v.reorder {
		// Defer past ReorderDelay so in-flight traffic on the link
		// overtakes this message; crash/partition state is re-checked at
		// fire time so a message cannot outlive its sender's crash.
		t.stats.Reordered.Inc()
		time.AfterFunc(t.cfg.ReorderDelay+v.delay, func() {
			if late := t.decide(env.From, to); late.blocked {
				t.stats.Blocked.Inc()
				return
			}
			_ = t.inner.Send(to, env)
		})
		return nil
	}
	if v.delay > 0 {
		t.stats.Delayed.Inc()
		time.AfterFunc(v.delay, func() { _ = t.inner.Send(to, env) })
		if v.dup {
			t.stats.Duplicated.Inc()
			time.AfterFunc(v.delay, func() { _ = t.inner.Send(to, env) })
		}
		return nil
	}
	err := t.inner.Send(to, env)
	if v.dup {
		t.stats.Duplicated.Inc()
		_ = t.inner.Send(to, env)
	}
	return err
}

// DecisionTrace returns the next n drop/dup/reorder verdicts of a link
// as a compact string ("." pass, "D" drop, "2" dup, "R" reorder; a
// message with several verdicts shows the first in that order). It
// advances the link's stream exactly as n sends would — use it on a
// fresh Transport to pin the deterministic fault pattern in tests.
func (t *Transport) DecisionTrace(from, to topology.NodeID, n int) string {
	out := make([]byte, n)
	for i := range out {
		v := t.decide(from, to)
		switch {
		case v.drop:
			out[i] = 'D'
		case v.dup:
			out[i] = '2'
		case v.reorder:
			out[i] = 'R'
		default:
			out[i] = '.'
		}
	}
	return string(out)
}
