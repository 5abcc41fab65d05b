package workload

import (
	"fmt"

	"repro/internal/digest"
	"repro/internal/rng"
)

// ChunkID identifies one OLAP chunk (a cell range of the aggregated
// data cube, the caching unit of PeerOlap).
type ChunkID = digest.Key

// OlapConfig parameterizes the PeerOlap-like workload: peers issue
// multi-chunk OLAP queries over a shared cube; chunk popularity is
// skewed and correlated within analyst communities ("regions" of the
// cube that a department keeps re-aggregating).
type OlapConfig struct {
	// Chunks is the cube size in chunks.
	Chunks int
	// Regions partitions the cube into analyst communities.
	Regions int
	// PopularityTheta is the within-region Zipf skew.
	PopularityTheta float64
	// Peers is the number of participating workstations.
	Peers int
	// LocalFraction is the share of a peer's queries over its own
	// region.
	LocalFraction float64
	// ChunksPerQueryMean is the mean number of chunks one OLAP query
	// decomposes into (geometrically distributed, >= 1).
	ChunksPerQueryMean float64
	// QueriesPerHour is each peer's query rate.
	QueriesPerHour float64
}

// DefaultOlapConfig returns a laptop-scale configuration.
func DefaultOlapConfig() OlapConfig {
	return OlapConfig{
		Chunks:             20_000,
		Regions:            10,
		PopularityTheta:    0.9,
		Peers:              60,
		LocalFraction:      0.75,
		ChunksPerQueryMean: 5,
		QueriesPerHour:     60,
	}
}

// Validate reports configuration errors.
func (c OlapConfig) Validate() error {
	switch {
	case c.Chunks <= 0 || c.Regions <= 0 || c.Peers <= 0:
		return fmt.Errorf("workload: non-positive sizes in %+v", c)
	case c.Chunks%c.Regions != 0:
		return fmt.Errorf("workload: %d chunks not divisible into %d regions", c.Chunks, c.Regions)
	case c.LocalFraction < 0 || c.LocalFraction > 1:
		return fmt.Errorf("workload: local fraction %v outside [0,1]", c.LocalFraction)
	case c.ChunksPerQueryMean < 1:
		return fmt.Errorf("workload: chunks per query %v < 1", c.ChunksPerQueryMean)
	case c.QueriesPerHour <= 0:
		return fmt.Errorf("workload: non-positive query rate %v", c.QueriesPerHour)
	}
	return nil
}

// Cube is the chunk universe plus popularity structure.
type Cube struct {
	cfg       OlapConfig
	perRegion int
	pop       *rng.Zipf
}

// NewCube builds the chunk universe.
func NewCube(cfg OlapConfig) *Cube {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	per := cfg.Chunks / cfg.Regions
	return &Cube{cfg: cfg, perRegion: per, pop: rng.NewZipf(per, cfg.PopularityTheta)}
}

// Chunk maps (region, rank) to a ChunkID; rank is 1-based.
func (c *Cube) Chunk(region, rank int) ChunkID {
	if region < 0 || region >= c.cfg.Regions || rank < 1 || rank > c.perRegion {
		panic(fmt.Sprintf("workload: chunk (%d,%d) out of range", region, rank))
	}
	return ChunkID(region*c.perRegion + rank - 1)
}

// AssignRegions gives each peer a home region, uniformly.
func (c *Cube) AssignRegions(s *rng.Stream) []int {
	out := make([]int, c.cfg.Peers)
	for i := range out {
		out[i] = s.Intn(c.cfg.Regions)
	}
	return out
}

// SampleQuery draws one OLAP query for a peer in the given region: a
// geometrically sized set of distinct chunks, drawn by popularity from
// the peer's region (or a uniform other region with probability
// 1 - LocalFraction; the whole query stays in one region, matching the
// locality of a drill-down session).
func (c *Cube) SampleQuery(s *rng.Stream, region int) []ChunkID {
	if !s.Bernoulli(c.cfg.LocalFraction) {
		other := s.Intn(c.cfg.Regions - 1)
		if other >= region {
			other++
		}
		region = other
	}
	// Geometric chunk count with the configured mean (>= 1):
	// P(stop) = 1/mean after the first chunk.
	n := 1
	stop := 1 / c.cfg.ChunksPerQueryMean
	for !s.Bernoulli(stop) && n < 64 {
		n++
	}
	seen := make(map[ChunkID]struct{}, n)
	out := make([]ChunkID, 0, n)
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		ch := c.Chunk(region, c.pop.Rank(s))
		if _, dup := seen[ch]; !dup {
			seen[ch] = struct{}{}
			out = append(out, ch)
		}
	}
	return out
}
