// Package gnutella implements the paper's Section 4 case study: an
// adaptive content-sharing network. It binds the framework of
// internal/core to the shared session driver with the exact parameters
// of Section 4.1/4.2 and provides both protocol variants of the
// evaluation:
//
//   - Static: plain Gnutella — random neighbors chosen at login, only
//     replaced (randomly) when a neighbor logs off;
//   - Dynamic: Algo 5 — combined search/exploration, benefit B/R per
//     obtained result, reconfiguration every θ requests and on neighbor
//     log-off, invitations always accepted, evictions reset the
//     victim's statistics about the evictor.
//
// The timeline (churn, Poisson query arrivals, search dispatch, trace
// plumbing) lives in internal/driver; this package keeps only the
// domain: the music workload, the B/R benefit bookkeeping, and the
// login/logoff/reconfiguration reactions.
package gnutella

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/search"
)

// Mode selects the protocol variant.
type Mode uint8

const (
	// Static is the paper's baseline Gnutella configuration.
	Static Mode = iota
	// Dynamic is the paper's adaptive variant (Algo 5).
	Dynamic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Static:
		return "Gnutella"
	case Dynamic:
		return "Dynamic_Gnutella"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Mode selects static baseline or dynamic reconfiguration.
	Mode Mode
	// Music, Churn and Query describe the synthetic workload.
	Music workload.MusicConfig
	Churn workload.ChurnConfig
	Query workload.QueryConfig
	// Neighbors is the symmetric neighbor capacity ("the maximum number
	// of neighbors was set to 4").
	Neighbors int
	// TTL is the search terminating condition in hops (2 and 4 in
	// Figures 1-2; 1-4 in Figure 3(a)).
	TTL int
	// ReconfigThreshold is θ: reconfigure after this many satisfied
	// requests ("the reconfiguration threshold was set to 2 requests").
	ReconfigThreshold int
	// MaxSwaps bounds neighbors exchanged per reconfiguration ("only
	// one neighbor is exchanged during each reconfiguration").
	MaxSwaps int
	// Variant bundles the ablation knobs (update regime, benefit,
	// forward policy, iterative deepening); the zero value is the
	// paper's case study.
	Variant Variant
	// ForwardWhenHit makes serving nodes keep propagating the query.
	// Plain Gnutella (the static baseline) floods to the TTL regardless
	// of hits; the paper's dynamic variant stops at serving nodes "in
	// order to limit the number of messages" (Section 4.1).
	ForwardWhenHit bool
	// DurationHours is the simulated period (the paper runs 4 days).
	DurationHours int
	// DriftAtHour, when positive, changes the music preferences of
	// DriftFraction of the users at that simulated hour — the "changes
	// in access patterns" the framework claims to follow. Libraries
	// stay fixed (users keep their songs); only future queries shift.
	DriftAtHour int
	// DriftFraction is the share of users whose preferences drift.
	DriftFraction float64
	// LedgerDecayPerHour, in (0, 1], multiplies every statistics ledger
	// hourly, aging out stale observations so reconfiguration tracks
	// drift faster. 0 disables decay (the paper's setting: preferences
	// "remain rather static").
	LedgerDecayPerHour float64
	// Seed determines the entire run.
	Seed uint64
	// Trace, when non-nil, receives protocol-level events (queries,
	// hits, reconfigurations, churn) for debugging and analysis.
	Trace trace.Sink
}

// DefaultConfig returns the paper's settings for the given mode and
// TTL.
func DefaultConfig(mode Mode, ttl int) Config {
	return Config{
		Mode:              mode,
		Music:             workload.DefaultMusicConfig(),
		Churn:             workload.DefaultChurnConfig(),
		Query:             workload.DefaultQueryConfig(),
		Neighbors:         4,
		TTL:               ttl,
		ReconfigThreshold: 2,
		MaxSwaps:          1,
		ForwardWhenHit:    mode == Static,
		DurationHours:     96,
		Seed:              1,
	}
}

// CIConfig returns a reduced-scale configuration with the same shape,
// for tests and benchmarks (200 users, 1 simulated day).
func CIConfig(mode Mode, ttl int) Config {
	c := DefaultConfig(mode, ttl)
	c.Music = c.Music.Scaled(10)
	c.DurationHours = 24
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Music.Validate(); err != nil {
		return err
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	if err := c.Query.Validate(); err != nil {
		return err
	}
	switch {
	case c.Neighbors <= 0:
		return fmt.Errorf("gnutella: non-positive neighbor capacity %d", c.Neighbors)
	case c.TTL < 1:
		return fmt.Errorf("gnutella: TTL %d < 1", c.TTL)
	case c.Mode == Dynamic && c.ReconfigThreshold < 1:
		return fmt.Errorf("gnutella: reconfiguration threshold %d < 1", c.ReconfigThreshold)
	case c.MaxSwaps < 0:
		return fmt.Errorf("gnutella: negative max swaps %d (0 = unlimited)", c.MaxSwaps)
	case !(c.Variant.TrialPeriodHours >= 0) || math.IsInf(c.Variant.TrialPeriodHours, 1):
		return fmt.Errorf("gnutella: trial period %v hours is not finite and non-negative", c.Variant.TrialPeriodHours)
	case c.DurationHours < 1:
		return fmt.Errorf("gnutella: duration %d hours", c.DurationHours)
	case c.DriftFraction < 0 || c.DriftFraction > 1:
		return fmt.Errorf("gnutella: drift fraction %v outside [0,1]", c.DriftFraction)
	case c.LedgerDecayPerHour < 0 || c.LedgerDecayPerHour > 1:
		return fmt.Errorf("gnutella: ledger decay %v outside [0,1]", c.LedgerDecayPerHour)
	}
	return nil
}

// Metrics aggregates everything the paper's figures need from one run.
type Metrics struct {
	// Hits counts satisfied queries per hour (Figures 1(a), 2(a)).
	Hits *metrics.Series
	// Queries counts issued queries per hour.
	Queries *metrics.Series
	// Meter counts messages per hour by kind (Figures 1(b), 2(b) plot
	// the MsgQuery series).
	Meter *netsim.Meter
	// FirstResultDelay aggregates the delay until the first result over
	// satisfied queries (Figure 3(a)).
	FirstResultDelay metrics.Welford
	// TotalResults counts every obtained result (Figure 3(a)
	// annotations).
	TotalResults uint64
	// Reconfigurations counts reconfiguration events that changed the
	// neighborhood.
	Reconfigurations uint64
	// LoginCount and LogoffCount track churn volume.
	LoginCount, LogoffCount uint64
}

// Sim is one bound simulation run: the shared session driver plus the
// music-sharing domain state.
type Sim struct {
	cfg     Config
	sess    *driver.Session
	catalog *workload.Catalog
	users   []*workload.User
	ledgers []*stats.Ledger
	// reqCount is the per-node issued-request counter driving θ.
	reqCount []int
	updater  *core.SymmetricUpdater
	trials   *core.TrialTracker
	// indexRadius is the configured local-index radius (0 without
	// indices); searches run with TTL shortened by it.
	indexRadius int
	met         *Metrics
}

// New builds a simulation (generating the dataset) without running it.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(cfg.Seed)
	catalog := workload.NewCatalog(cfg.Music)
	users := workload.GenerateUsers(catalog, root.Split())

	// The asymmetric-update ablation needs a pure asymmetric network
	// (unbounded incoming lists); the paper's case study is symmetric.
	relation := topology.Symmetric
	if cfg.Variant.Update == AsymmetricUpdate {
		relation = topology.PureAsymmetric
	}
	s := &Sim{
		cfg:      cfg,
		catalog:  catalog,
		users:    users,
		ledgers:  make([]*stats.Ledger, cfg.Music.Users),
		reqCount: make([]int, cfg.Music.Users),
		met: &Metrics{
			Hits:    metrics.NewSeries(3600),
			Queries: metrics.NewSeries(3600),
			Meter:   netsim.NewMeter(3600),
		},
	}
	for i := range s.ledgers {
		s.ledgers[i] = stats.NewLedger()
	}
	s.updater = &core.SymmetricUpdater{
		Benefit:  stats.Cumulative{},
		Capacity: cfg.Neighbors,
		Invite:   core.AlwaysAccept,
		MaxSwaps: cfg.MaxSwaps,
	}
	churn := cfg.Churn
	sess, err := driver.New(driver.Spec{
		Nodes:    cfg.Music.Users,
		Relation: relation,
		OutCap:   cfg.Neighbors,
		InCap:    cfg.Neighbors,
		Duration: float64(cfg.DurationHours) * 3600,
		Arrivals: driver.Poisson{RatePerHour: cfg.Query.RatePerHour},
		Churn:    &churn,
		Content:  core.ContentFunc(s.hasContent),
		Classes:  func(id topology.NodeID) netsim.BandwidthClass { return s.users[id].Class },
		Search:   s.searchOptions,
		OnQuery:  s.issueQuery,
		OnLogin:  s.login,
		OnLogoff: s.logoff,
		Before:   s.scheduleDomainProcesses,
		Trace:    cfg.Trace,
	}, root)
	if err != nil {
		panic(err)
	}
	s.sess = sess
	return s
}

// searchOptions assembles the facade: the base options encode the
// paper's case-study parameters, the variant contributes the ablation
// knobs (forward policy, deepening, local indices). The driver already
// installed the delay model and the scratch hint.
func (s *Sim) searchOptions(sess *driver.Session) []search.Option {
	opts := []search.Option{
		search.WithForwardWhenHit(s.cfg.ForwardWhenHit),
		search.WithOnMessage(func(_, _ topology.NodeID) {
			s.met.Meter.Count(netsim.MsgQuery, sess.Now(), 1)
		}),
	}
	opts = append(opts, s.variantOptions(sess)...)
	// Local indices answer for peers within the radius, so the flood
	// runs that much shorter with unchanged coverage.
	ttl := s.cfg.TTL - s.indexRadius
	if ttl < 0 {
		ttl = 0
	}
	return append(opts, search.WithTTL(ttl))
}

func (s *Sim) hasContent(id topology.NodeID, key core.Key) bool {
	return s.users[id].Has(key)
}

// Network exposes the neighbor graph.
func (s *Sim) Network() *topology.Network { return s.sess.Network() }

// Run executes the full configured duration and returns the metrics.
func (s *Sim) Run() *Metrics {
	s.sess.Run()
	s.met.LoginCount = s.sess.Logins()
	s.met.LogoffCount = s.sess.Logoffs()
	return s.met
}

// scheduleDomainProcesses schedules the domain-side timeline (the
// driver owns churn and arrivals): preference drift, trial expiry,
// ledger decay.
func (s *Sim) scheduleDomainProcesses() {
	en := s.sess.Engine()
	if s.cfg.DriftAtHour > 0 {
		en.At(float64(s.cfg.DriftAtHour)*3600, func(*sim.Engine) { s.drift() })
	}
	if s.trials != nil {
		en.Ticker(3600, 3600, func(en *sim.Engine) {
			s.trials.Expire((*updateEnv)(s), en.Now())
		})
	}
	if f := s.cfg.LedgerDecayPerHour; f > 0 && f < 1 {
		en.Ticker(3600, 3600, func(*sim.Engine) {
			for _, led := range s.ledgers {
				led.Decay(f)
			}
		})
	}
}

// login wires a fresh node into the network with random neighbors —
// the Gnutella bootstrap used by both variants ("both the initial
// configuration and the changes are purely random").
func (s *Sim) login(id topology.NodeID) {
	candidates := s.onlineCandidates(id)
	topology.RandomAttach(s.sess.Network(), id, candidates, s.cfg.Neighbors, s.sess.TopoStream().Intn)
}

// logoff removes the node from the network; its ex-neighbors react per
// the mode ("neighbor log-offs trigger the update process").
func (s *Sim) logoff(id topology.NodeID, _ float64) {
	net := s.sess.Network()
	neighbors := net.Node(id).Out.Snapshot()
	net.Isolate(id)
	s.reqCount[id] = 0
	if s.trials != nil {
		s.trials.Drop(id)
	}
	for _, n := range neighbors {
		if !s.sess.IsOnline(n) {
			continue
		}
		if s.cfg.Mode == Dynamic {
			s.applyUpdate(n)
		}
		// Both variants fall back to the bootstrap server for fresh
		// random neighbors when slots stay open: pure Gnutella refills
		// randomly; the dynamic variant only tops up what benefit-based
		// invitations could not fill, keeping the network connected
		// while statistics are still sparse.
		if deficit := s.cfg.Neighbors - net.Node(n).Out.Len(); deficit > 0 {
			topology.RandomAttach(net, n, s.onlineCandidates(n), deficit, s.sess.TopoStream().Intn)
		}
	}
}

// onlineCandidates lists all on-line nodes except self.
func (s *Sim) onlineCandidates(self topology.NodeID) []topology.NodeID {
	n := s.cfg.Music.Users
	out := make([]topology.NodeID, 0, n/2)
	for i := 0; i < n; i++ {
		if id := topology.NodeID(i); id != self && s.sess.IsOnline(id) {
			out = append(out, id)
		}
	}
	return out
}

// issueQuery runs Send_Query for one end-user request.
func (s *Sim) issueQuery(id topology.NodeID, now float64) {
	song := workload.SampleQuery(s.catalog, s.sess.QueryStream(id), s.users[id])
	s.met.Queries.Incr(now)
	outcome := s.sess.Do(search.Query{
		ID:     s.sess.NextQueryID(),
		Key:    song,
		Origin: id,
	})
	s.sess.Emit(trace.Event{Kind: trace.KindQuery, Node: id, Key: uint64(song), N: int(outcome.Messages)})
	if outcome.Found() {
		s.met.Hits.Incr(now)
		s.sess.Emit(trace.Event{Kind: trace.KindHit, Node: id, Key: uint64(song),
			Peer: outcome.Hits[0].Holder, N: len(outcome.Hits)})
		s.met.TotalResults += uint64(len(outcome.Hits))
		s.met.FirstResultDelay.Observe(outcome.FirstResultDelay)

		// Send_Query: "update the statistics of each node in nlist".
		// Each result accounts for a benefit of B/R (B = bandwidth
		// weight of the answering link, R = total number of results of
		// this query).
		led := s.ledgers[id]
		r := float64(len(outcome.Hits))
		for _, res := range outcome.Hits {
			rec := led.Touch(res.Holder)
			rec.Hits++
			rec.Results++
			rec.Replies++
			rec.LatencySum += res.Delay
			rec.LastSeen = now
			rec.Benefit += s.users[res.Holder].Class.Weight() / r
		}
	}

	// The reconfiguration counter ticks on every issued request ("the
	// reconfiguration threshold was set to 2 requests"), not only on
	// satisfied ones; reconfiguring with unchanged statistics is a
	// cheap no-op.
	if s.cfg.Mode == Dynamic {
		s.reqCount[id]++
		if s.reqCount[id] >= s.cfg.ReconfigThreshold {
			s.applyUpdate(id)
		}
	}
}

// updateEnv adapts Sim to core.SymmetricEnv.
type updateEnv Sim

// Net implements core.SymmetricEnv.
func (e *updateEnv) Net() *topology.Network { return e.sess.Network() }

// Ledger implements core.SymmetricEnv.
func (e *updateEnv) Ledger(id topology.NodeID) *stats.Ledger { return e.ledgers[id] }

// Online implements core.SymmetricEnv.
func (e *updateEnv) Online(id topology.NodeID) bool { return e.sess.IsOnline(id) }

// Control implements core.SymmetricEnv.
func (e *updateEnv) Control(kind netsim.MessageKind, from, to topology.NodeID) {
	e.met.Meter.Count(kind, e.sess.Now(), 1)
	switch kind {
	case netsim.MsgInvite:
		e.sess.Emit(trace.Event{Kind: trace.KindInvite, Node: from, Peer: to})
	case netsim.MsgEvict:
		e.sess.Emit(trace.Event{Kind: trace.KindEvict, Node: from, Peer: to})
	}
}

// ResetCounter implements core.SymmetricEnv.
func (e *updateEnv) ResetCounter(id topology.NodeID) { e.reqCount[id] = 0 }

// drift re-rolls the preference profile of DriftFraction of the users:
// a fresh favorite category and fresh secondary categories, sampled
// from the same distributions as at generation time. Future queries
// follow the new profile immediately.
func (s *Sim) drift() {
	for i, u := range s.users {
		st := s.sess.QueryStream(topology.NodeID(i))
		if !st.Bernoulli(s.cfg.DriftFraction) {
			continue
		}
		u.Favorite = s.catalog.SampleFavoriteCategory(st)
		others := make([]int, 0, len(u.Others))
		seen := map[int]bool{u.Favorite: true}
		for len(others) < cap(others) {
			c := st.Intn(s.cfg.Music.Categories)
			if !seen[c] {
				seen[c] = true
				others = append(others, c)
			}
		}
		u.Others = others
	}
}
