package workload

import (
	"fmt"

	"repro/internal/digest"
	"repro/internal/rng"
)

// PageID identifies a web object, globally: interest*pagesPerInterest +
// rank-1. It doubles as the content key for the web-cache case study.
type PageID = digest.Key

// WebConfig parameterizes the distributed web-caching workload (the
// Squid-like scenario of Sections 1–3): cooperating proxies whose
// client populations have skewed, community-correlated interests.
type WebConfig struct {
	// Pages is the universe of distinct objects.
	Pages int
	// Interests partitions pages into interest communities (the analog
	// of music genres: proxies serving similar populations benefit from
	// neighboring).
	Interests int
	// PopularityTheta is the within-interest Zipf skew.
	PopularityTheta float64
	// Proxies is the number of cooperating caches.
	Proxies int
	// LocalFraction is the share of a proxy's requests drawn from its
	// own interest community.
	LocalFraction float64
	// RequestsPerHour is each proxy's client request rate.
	RequestsPerHour float64
}

// DefaultWebConfig returns a laptop-scale configuration with strongly
// clustered interests.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		Pages:           50_000,
		Interests:       20,
		PopularityTheta: 0.9,
		Proxies:         100,
		LocalFraction:   0.7,
		RequestsPerHour: 2000,
	}
}

// Validate reports configuration errors.
func (c WebConfig) Validate() error {
	switch {
	case c.Pages <= 0 || c.Interests <= 0 || c.Proxies <= 0:
		return fmt.Errorf("workload: non-positive sizes in %+v", c)
	case c.Pages%c.Interests != 0:
		return fmt.Errorf("workload: %d pages not divisible into %d interests", c.Pages, c.Interests)
	case c.LocalFraction < 0 || c.LocalFraction > 1:
		return fmt.Errorf("workload: local fraction %v outside [0,1]", c.LocalFraction)
	case c.RequestsPerHour <= 0:
		return fmt.Errorf("workload: non-positive request rate %v", c.RequestsPerHour)
	}
	return nil
}

// WebSpace is the page universe plus popularity structure.
type WebSpace struct {
	cfg         WebConfig
	perInterest int
	pop         *rng.Zipf
}

// NewWebSpace builds the page universe.
func NewWebSpace(cfg WebConfig) *WebSpace {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	per := cfg.Pages / cfg.Interests
	return &WebSpace{cfg: cfg, perInterest: per, pop: rng.NewZipf(per, cfg.PopularityTheta)}
}

// Page maps (interest, rank) to a PageID; rank is 1-based.
func (w *WebSpace) Page(interest, rank int) PageID {
	if interest < 0 || interest >= w.cfg.Interests || rank < 1 || rank > w.perInterest {
		panic(fmt.Sprintf("workload: page (%d,%d) out of range", interest, rank))
	}
	return PageID(interest*w.perInterest + rank - 1)
}

// AssignInterests gives each proxy an interest community, uniformly.
func (w *WebSpace) AssignInterests(s *rng.Stream) []int {
	out := make([]int, w.cfg.Proxies)
	for i := range out {
		out[i] = s.Intn(w.cfg.Interests)
	}
	return out
}

// SampleRequest draws the page a proxy's client population asks for:
// the proxy's own interest with probability LocalFraction, otherwise a
// uniform other interest; the page within the interest follows the
// popularity Zipf.
func (w *WebSpace) SampleRequest(s *rng.Stream, interest int) PageID {
	if !s.Bernoulli(w.cfg.LocalFraction) {
		other := s.Intn(w.cfg.Interests - 1)
		if other >= interest {
			other++
		}
		interest = other
	}
	return w.Page(interest, w.pop.Rank(s))
}
