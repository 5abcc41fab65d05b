// Package webcache implements the distributed web-caching case study
// that motivates Sections 1–3 of the paper: Squid-like cooperating
// proxies with *pure asymmetric* neighbor relations, a one-hop search
// before falling back to the origin server, an explicit exploration
// process (Algo 2 — unlike Gnutella, search alone cannot discover
// distant proxies because misses go straight to the origin), and the
// unilateral neighbor update of Algo 3.
//
// The benefit function is the paper's web-proxy suggestion: "the number
// of retrieved pages, combined with the end-to-end latency".
//
// The timeline (placement, Poisson request arrivals, search dispatch)
// lives in internal/driver; this package keeps only the domain: the
// page workload, LRU caches with Bloom digests, and the
// explore/reconfigure processes.
package webcache

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/driver"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/pkg/search"
)

// Mode selects fixed random neighbors (baseline) or the framework's
// dynamic reconfiguration.
type Mode uint8

const (
	// Static keeps the initial random neighbor lists for the whole run.
	Static Mode = iota
	// Dynamic explores and reconfigures per Algos 2–3.
	Dynamic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Static:
		return "Static_Squid"
	case Dynamic:
		return "Dynamic_Squid"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes one web-caching run.
type Config struct {
	// Mode selects the baseline or the adaptive variant.
	Mode Mode
	// Web is the request workload.
	Web workload.WebConfig
	// Neighbors is the outgoing-list capacity (incoming is unbounded:
	// pure asymmetric, like top-level Squid proxies).
	Neighbors int
	// CacheCapacity is each proxy's LRU size in pages.
	CacheCapacity int
	// UseDigests guides the one-hop search by neighbor cache digests
	// ("use summary info if available").
	UseDigests bool
	// ExplorePeriodHours is the Algo 2 trigger period.
	ExplorePeriodHours float64
	// ExploreTTL is the exploration census depth.
	ExploreTTL int
	// ExploreProbes is how many recently missed pages one exploration
	// queries for.
	ExploreProbes int
	// ReconfigPeriodHours is the Algo 3 trigger period.
	ReconfigPeriodHours float64
	// OriginDelayMean is the mean origin-server fetch delay in seconds
	// (synthetic: the origin is far away; see DESIGN.md).
	OriginDelayMean float64
	// DurationHours is the simulated period.
	DurationHours int
	// Seed determines the run.
	Seed uint64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:                mode,
		Web:                 workload.DefaultWebConfig(),
		Neighbors:           5,
		CacheCapacity:       500,
		UseDigests:          false,
		ExplorePeriodHours:  1,
		ExploreTTL:          2,
		ExploreProbes:       8,
		ReconfigPeriodHours: 2,
		OriginDelayMean:     1.0,
		DurationHours:       48,
		Seed:                1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Web.Validate(); err != nil {
		return err
	}
	switch {
	case c.Neighbors <= 0:
		return fmt.Errorf("webcache: non-positive neighbor capacity %d", c.Neighbors)
	case c.CacheCapacity <= 0:
		return fmt.Errorf("webcache: non-positive cache capacity %d", c.CacheCapacity)
	case c.Mode == Dynamic && (c.ExplorePeriodHours <= 0 || c.ReconfigPeriodHours <= 0):
		return fmt.Errorf("webcache: dynamic mode needs positive periods, got %+v", c)
	case c.Mode == Dynamic && c.ExploreTTL < 1:
		return fmt.Errorf("webcache: exploration TTL %d < 1", c.ExploreTTL)
	case c.Mode == Dynamic && c.ExploreProbes < 1:
		return fmt.Errorf("webcache: ExploreProbes %d < 1", c.ExploreProbes)
	case c.OriginDelayMean <= 0:
		return fmt.Errorf("webcache: non-positive origin delay %v", c.OriginDelayMean)
	case c.DurationHours < 1:
		return fmt.Errorf("webcache: duration %d hours", c.DurationHours)
	}
	return nil
}

// Metrics aggregates one run.
type Metrics struct {
	// Requests, LocalHits, NeighborHits and OriginFetches are per-hour
	// series; every request falls in exactly one of the three outcomes.
	Requests, LocalHits, NeighborHits, OriginFetches *metrics.Series
	// Latency aggregates full request latencies in seconds.
	Latency metrics.Welford
	// Meter counts cooperation traffic (queries, explores, replies).
	Meter *netsim.Meter
	// Reconfigurations counts neighbor-list changes.
	Reconfigurations uint64
}

// NeighborHitRatio returns neighbor hits / requests over buckets
// [from, to).
func (m *Metrics) NeighborHitRatio(from, to int) float64 {
	req := m.Requests.Window(from, to)
	if req == 0 {
		return 0
	}
	return m.NeighborHits.Window(from, to) / req
}

// Sim is one bound web-caching run: the shared session driver plus the
// proxy-cache domain state.
type Sim struct {
	cfg       Config
	sess      *driver.Session
	space     *workload.WebSpace
	interests []int
	classes   []netsim.BandwidthClass
	caches    []*lru.LRU
	digests   []*digest.Bloom
	ledgers   []*stats.Ledger
	recent    [][]workload.PageID // recent misses, probe candidates
	met       *Metrics
	benefit   stats.Benefit
}

// New builds a run without starting it.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(cfg.Seed)
	space := workload.NewWebSpace(cfg.Web)
	n := cfg.Web.Proxies
	s := &Sim{
		cfg:       cfg,
		space:     space,
		interests: space.AssignInterests(root.Split()),
		classes:   netsim.AssignClasses(root.Split().Intn, n),
		caches:    make([]*lru.LRU, n),
		digests:   make([]*digest.Bloom, n),
		ledgers:   make([]*stats.Ledger, n),
		recent:    make([][]workload.PageID, n),
		benefit:   stats.HitRatePerLatency{Smoothing: 8},
		met: &Metrics{
			Requests:      metrics.NewSeries(3600),
			LocalHits:     metrics.NewSeries(3600),
			NeighborHits:  metrics.NewSeries(3600),
			OriginFetches: metrics.NewSeries(3600),
			Meter:         netsim.NewMeter(3600),
		},
	}
	for i := 0; i < n; i++ {
		s.caches[i] = lru.New(cfg.CacheCapacity)
		s.digests[i] = digest.NewBloom(cfg.CacheCapacity, 0.01)
		s.ledgers[i] = stats.NewLedger()
	}
	sess, err := driver.New(driver.Spec{
		Nodes:    n,
		Relation: topology.PureAsymmetric,
		OutCap:   cfg.Neighbors,
		Duration: float64(cfg.DurationHours) * 3600,
		// Initial random wiring for both variants; proxies never churn.
		Place:    driver.RandomWire(cfg.Neighbors),
		Arrivals: driver.Poisson{RatePerHour: cfg.Web.RequestsPerHour},
		Content:  core.ContentFunc(s.hasPage),
		Classes:  func(id topology.NodeID) netsim.BandwidthClass { return s.classes[id] },
		Search:   s.searchOptions,
		OnQuery:  s.handleRequest,
		After:    s.scheduleDynamicProcesses,
	}, root)
	if err != nil {
		panic(err)
	}
	s.sess = sess
	return s
}

// searchOptions assembles the facade. Policies are selected by name —
// the digest-guided family gets its oracle via WithDigest.
// No fallback: a proxy that digests say cannot help is skipped; the
// origin server is the safety net.
func (s *Sim) searchOptions(*driver.Session) []search.Option {
	policy := search.WithPolicy("flood")
	var opts []search.Option
	if s.cfg.UseDigests {
		policy = search.WithPolicy("digest-guided")
		opts = append(opts, search.WithDigest(
			func(id topology.NodeID, key core.Key) bool {
				return s.digests[id].Contains(key)
			}, nil))
	}
	return append(opts,
		policy,
		// "most Squid implementations define the number of hops to
		// be 1"; the first result terminates the search.
		search.WithTTL(1),
		search.WithMaxResults(1))
}

func (s *Sim) hasPage(id topology.NodeID, key core.Key) bool {
	return s.caches[id].Contains(key)
}

// Run executes the configured duration.
func (s *Sim) Run() *Metrics {
	s.sess.Run()
	return s.met
}

// scheduleDynamicProcesses arms Algo 2/3 tickers after the driver has
// armed every request process (so the stagger draws stay behind the
// placement draws on the topology stream).
func (s *Sim) scheduleDynamicProcesses() {
	if s.cfg.Mode != Dynamic {
		return
	}
	en := s.sess.Engine()
	topo := s.sess.TopoStream()
	for i := 0; i < s.cfg.Web.Proxies; i++ {
		id := topology.NodeID(i)
		// Stagger periodic processes so proxies do not reconfigure in
		// lockstep.
		off := topo.Float64()
		en.Ticker((off+0.02)*s.cfg.ExplorePeriodHours*3600, s.cfg.ExplorePeriodHours*3600,
			func(en *sim.Engine) { s.explore(id, en.Now()) })
		en.Ticker((off+0.51)*s.cfg.ReconfigPeriodHours*3600, s.cfg.ReconfigPeriodHours*3600,
			func(en *sim.Engine) { s.reconfigure(id) })
	}
}

// handleRequest serves one client request at proxy id (Algo 1's
// "On End-user Request Arrival" with the web-caching parameters:
// hops = 1, first result terminates, origin fallback).
func (s *Sim) handleRequest(id topology.NodeID, now float64) {
	page := s.space.SampleRequest(s.sess.QueryStream(id), s.interests[id])
	s.met.Requests.Incr(now)

	if s.caches[id].Get(page) {
		s.met.LocalHits.Incr(now)
		s.met.Latency.Observe(0.002) // LAN-local service time
		return
	}

	// Track which neighbors this query actually probed: ICP-style
	// cooperation answers every probe with HIT or MISS, and both
	// observations feed the benefit statistics.
	var probed []topology.NodeID
	outcome := s.sess.Do(search.Query{
		ID:     uint64(id)<<40 | uint64(s.met.Requests.Total()),
		Key:    page,
		Origin: id,
		OnMessage: func(from, to topology.NodeID) {
			s.met.Meter.Count(netsim.MsgQuery, now, 1)
			if from == id {
				probed = append(probed, to)
			}
		},
	})

	led := s.ledgers[id]
	holder := topology.None
	if outcome.Found() {
		holder = outcome.Hits[0].Holder
	}
	for _, nb := range probed {
		rec := led.Touch(nb)
		rec.Replies++
		rec.LatencySum += 2 * s.sess.SampleDelay(id, nb) // probe round trip
		rec.LastSeen = now
	}
	if outcome.Found() {
		res := outcome.Hits[0]
		s.met.NeighborHits.Incr(now)
		// Fetch costs one more round trip to the serving neighbor.
		fetch := 2 * s.sess.SampleDelay(id, res.Holder)
		s.met.Latency.Observe(res.Delay + fetch)
		rec := led.Touch(holder)
		rec.Hits++
		rec.Results++
	} else {
		// Origin fallback: the web server plays the alternative
		// repository role, so no deeper search is attempted.
		s.met.OriginFetches.Incr(now)
		d := s.sess.DelayStream().BoundedNormal(s.cfg.OriginDelayMean, 0.2,
			s.cfg.OriginDelayMean/2, s.cfg.OriginDelayMean*2)
		s.met.Latency.Observe(d)
		s.rememberMiss(id, page)
	}
	s.insert(id, page)
}

// rememberMiss records a missed page as an exploration probe candidate.
func (s *Sim) rememberMiss(id topology.NodeID, page workload.PageID) {
	r := s.recent[id]
	if len(r) >= 64 {
		copy(r, r[1:])
		r = r[:len(r)-1]
	}
	s.recent[id] = append(r, page)
}

// insert stores a fetched page locally and maintains the proxy digest.
func (s *Sim) insert(id topology.NodeID, page workload.PageID) {
	s.caches[id].Put(page)
	// Bloom filters cannot delete; the digest accumulates until its
	// periodic rebuild in explore (stale entries only cause harmless
	// extra probes).
	s.digests[id].Add(page)
}

// explore runs Algo 2 for one proxy: census the ExploreTTL-hop
// neighborhood for recently missed pages, record findings, refresh the
// local digest.
func (s *Sim) explore(id topology.NodeID, now float64) {
	// Rebuild the digest from live cache contents so remote peers see
	// bounded staleness.
	s.digests[id] = digest.NewBloom(s.cfg.CacheCapacity, 0.01)
	for _, k := range s.caches[id].Keys() {
		s.digests[id].Add(k)
	}

	probes := s.recent[id]
	if len(probes) == 0 {
		return
	}
	if len(probes) > s.cfg.ExploreProbes {
		probes = probes[len(probes)-s.cfg.ExploreProbes:]
	}
	out := s.sess.Explore(search.Exploration{
		Keys:   append([]workload.PageID(nil), probes...),
		Origin: id,
		TTL:    s.cfg.ExploreTTL,
		OnMessage: func(_, _ topology.NodeID) {
			s.met.Meter.Count(netsim.MsgExplore, now, 1)
		},
	})
	core.RecordFindings(s.ledgers[id], out, now, func(topology.NodeID) float64 { return 1 })
}

// reconfigure runs Algo 3 for one proxy: unilateral top-K update of the
// outgoing list by hits-per-latency benefit.
func (s *Sim) reconfigure(id topology.NodeID) {
	net := s.sess.Network()
	desired := core.PlanAsymmetric(s.ledgers[id], s.benefit, s.cfg.Neighbors,
		net.Node(id).Out.IDs(),
		func(p topology.NodeID) bool { return p != id })
	added, removed := core.ApplyOutList(net, id, desired)
	if len(added) > 0 || len(removed) > 0 {
		s.met.Reconfigurations++
	}
}
