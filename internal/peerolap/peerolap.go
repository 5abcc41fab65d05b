// Package peerolap implements the PeerOlap-like case study of Section
// 2: workstations cache OLAP result chunks and answer each other's
// queries, falling back to the data warehouse for missing chunks. The
// dominating cost is query processing time at the warehouse, so the
// benefit function accumulates *saved processing cost* per peer
// (stats.CostSaved) and the neighbor update is the asymmetric Algo 3 —
// every peer re-targets its outgoing list unilaterally.
//
// Searches are two-hop, first-result-terminated, chunk by chunk (the
// initiating peer "decomposes [the query] into chunks, and broadcasts
// the request for the chunks").
//
// The timeline (placement, Poisson query arrivals, search dispatch)
// lives in internal/driver; this package keeps only the domain: the
// cube workload, chunk caches, and the cost-saved reconfiguration.
package peerolap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/pkg/search"
)

// Mode selects fixed random neighbors or adaptive reconfiguration.
type Mode uint8

const (
	// Static keeps the initial random wiring.
	Static Mode = iota
	// Dynamic reconfigures per Algo 3 with the cost-saved benefit.
	Dynamic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Static:
		return "Static_PeerOlap"
	case Dynamic:
		return "Dynamic_PeerOlap"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes one PeerOlap run.
type Config struct {
	// Mode selects the baseline or adaptive variant.
	Mode Mode
	// Olap is the query workload.
	Olap workload.OlapConfig
	// Neighbors is the outgoing-list capacity.
	Neighbors int
	// CacheChunks is each peer's chunk-cache capacity.
	CacheChunks int
	// SearchTTL bounds the per-chunk search depth.
	SearchTTL int
	// ReconfigThreshold is the Algo 3 trigger: reconfigure after this
	// many issued queries.
	ReconfigThreshold int
	// WarehouseCostMean is the mean warehouse processing cost per chunk
	// in seconds (the dominating cost PeerOlap avoids).
	WarehouseCostMean float64
	// PeerCostMean is the mean cost of obtaining a cached chunk from a
	// peer, in seconds (transfer + marshalling; far below warehouse).
	PeerCostMean float64
	// DurationHours is the simulated period.
	DurationHours int
	// Seed determines the run.
	Seed uint64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:              mode,
		Olap:              workload.DefaultOlapConfig(),
		Neighbors:         4,
		CacheChunks:       400,
		SearchTTL:         2,
		ReconfigThreshold: 10,
		WarehouseCostMean: 4.0,
		PeerCostMean:      0.4,
		DurationHours:     48,
		Seed:              1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Olap.Validate(); err != nil {
		return err
	}
	switch {
	case c.Neighbors <= 0:
		return fmt.Errorf("peerolap: non-positive neighbor capacity %d", c.Neighbors)
	case c.CacheChunks <= 0:
		return fmt.Errorf("peerolap: non-positive cache capacity %d", c.CacheChunks)
	case c.SearchTTL < 1:
		return fmt.Errorf("peerolap: search TTL %d < 1", c.SearchTTL)
	case c.Mode == Dynamic && c.ReconfigThreshold < 1:
		return fmt.Errorf("peerolap: reconfiguration threshold %d < 1", c.ReconfigThreshold)
	case c.WarehouseCostMean <= 0 || c.PeerCostMean <= 0:
		return fmt.Errorf("peerolap: non-positive costs in %+v", c)
	case c.PeerCostMean >= c.WarehouseCostMean:
		return fmt.Errorf("peerolap: peer cost %v must be below warehouse cost %v",
			c.PeerCostMean, c.WarehouseCostMean)
	case c.DurationHours < 1:
		return fmt.Errorf("peerolap: duration %d hours", c.DurationHours)
	}
	return nil
}

// Metrics aggregates one run.
type Metrics struct {
	// Queries counts OLAP queries per hour.
	Queries *metrics.Series
	// ChunkRequests, LocalChunks, PeerChunks, WarehouseChunks are
	// per-hour series; every requested chunk lands in exactly one.
	ChunkRequests, LocalChunks, PeerChunks, WarehouseChunks *metrics.Series
	// QueryCost aggregates total processing cost per query (seconds).
	QueryCost metrics.Welford
	// Meter counts cooperation traffic.
	Meter *netsim.Meter
	// Reconfigurations counts neighbor-list changes.
	Reconfigurations uint64
}

// PeerHitRatio returns peer-served chunks / chunk requests over buckets
// [from, to).
func (m *Metrics) PeerHitRatio(from, to int) float64 {
	req := m.ChunkRequests.Window(from, to)
	if req == 0 {
		return 0
	}
	return m.PeerChunks.Window(from, to) / req
}

// Sim is one bound PeerOlap run: the shared session driver plus the
// OLAP domain state.
type Sim struct {
	cfg     Config
	sess    *driver.Session
	cube    *workload.Cube
	regions []int
	classes []netsim.BandwidthClass
	caches  []*lru.LRU
	ledgers []*stats.Ledger
	queries []int // issued queries since last reconfiguration
	met     *Metrics
	benefit stats.Benefit

	costStream *rng.Stream
}

// New builds a run without starting it.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(cfg.Seed)
	cube := workload.NewCube(cfg.Olap)
	n := cfg.Olap.Peers
	s := &Sim{
		cfg:     cfg,
		cube:    cube,
		regions: cube.AssignRegions(root.Split()),
		classes: netsim.AssignClasses(root.Split().Intn, n),
		caches:  make([]*lru.LRU, n),
		ledgers: make([]*stats.Ledger, n),
		queries: make([]int, n),
		benefit: stats.CostSaved{},
		met: &Metrics{
			Queries:         metrics.NewSeries(3600),
			ChunkRequests:   metrics.NewSeries(3600),
			LocalChunks:     metrics.NewSeries(3600),
			PeerChunks:      metrics.NewSeries(3600),
			WarehouseChunks: metrics.NewSeries(3600),
			Meter:           netsim.NewMeter(3600),
		},
	}
	for i := 0; i < n; i++ {
		s.caches[i] = lru.New(cfg.CacheChunks)
		s.ledgers[i] = stats.NewLedger()
	}
	sess, err := driver.New(driver.Spec{
		Nodes:    n,
		Relation: topology.PureAsymmetric,
		OutCap:   cfg.Neighbors,
		Duration: float64(cfg.DurationHours) * 3600,
		Place:    driver.RandomWire(cfg.Neighbors),
		Arrivals: driver.Poisson{RatePerHour: cfg.Olap.QueriesPerHour},
		Content:  core.ContentFunc(s.hasChunk),
		Classes:  func(id topology.NodeID) netsim.BandwidthClass { return s.classes[id] },
		TTL:      cfg.SearchTTL,
		Search: func(*driver.Session) []search.Option {
			return []search.Option{
				search.WithPolicy("flood"),
				search.WithMaxResults(1),
			}
		},
		OnQuery: s.issueQuery,
	}, root)
	if err != nil {
		panic(err)
	}
	s.sess = sess
	// The warehouse/peer cost stream splits after the session streams,
	// preserving the historical root layout.
	s.costStream = root.Split()
	return s
}

func (s *Sim) hasChunk(id topology.NodeID, key core.Key) bool {
	return s.caches[id].Contains(key)
}

// Run executes the configured duration.
func (s *Sim) Run() *Metrics {
	s.sess.Run()
	return s.met
}

// issueQuery decomposes one OLAP query into chunks and resolves each:
// local cache, then a TTL-bounded peer search, then the warehouse.
func (s *Sim) issueQuery(id topology.NodeID, now float64) {
	chunks := s.cube.SampleQuery(s.sess.QueryStream(id), s.regions[id])
	s.met.Queries.Incr(now)
	led := s.ledgers[id]
	totalCost := 0.0

	for _, ch := range chunks {
		s.met.ChunkRequests.Incr(now)
		if s.caches[id].Get(ch) {
			s.met.LocalChunks.Incr(now)
			continue
		}
		outcome := s.sess.Do(search.Query{
			ID:     s.sess.NextQueryID(),
			Key:    ch,
			Origin: id,
			OnMessage: func(_, _ topology.NodeID) {
				s.met.Meter.Count(netsim.MsgQuery, now, 1)
			},
		})
		warehouse := s.costStream.BoundedNormal(s.cfg.WarehouseCostMean, s.cfg.WarehouseCostMean/4,
			s.cfg.WarehouseCostMean/2, s.cfg.WarehouseCostMean*2)
		if outcome.Found() {
			res := outcome.Hits[0]
			peerCost := res.Delay + s.costStream.BoundedNormal(s.cfg.PeerCostMean, s.cfg.PeerCostMean/4,
				s.cfg.PeerCostMean/2, s.cfg.PeerCostMean*2)
			totalCost += peerCost
			s.met.PeerChunks.Incr(now)
			rec := led.Touch(res.Holder)
			rec.Hits++
			rec.Results++
			rec.Replies++
			rec.LatencySum += res.Delay
			rec.LastSeen = now
			// The benefit is the processing time the peer saved us.
			saved := warehouse - peerCost
			if saved > 0 {
				rec.CostSaved += saved
			}
		} else {
			totalCost += warehouse
			s.met.WarehouseChunks.Incr(now)
		}
		s.caches[id].Put(ch)
	}
	s.met.QueryCost.Observe(totalCost)

	if s.cfg.Mode == Dynamic {
		s.queries[id]++
		if s.queries[id] >= s.cfg.ReconfigThreshold {
			s.queries[id] = 0
			s.reconfigure(id)
		}
	}
}

// reconfigure runs Algo 3: unilateral top-K update by saved cost.
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
