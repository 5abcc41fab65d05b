package rng

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks 1..N with P(rank = i) ∝ 1/i^theta. The paper uses
// θ = 0.9 both for song popularity within a category and for the
// assignment of users to favorite categories.
//
// Sampling is by inverse transform over a precomputed cumulative table,
// which costs O(log N) per draw and is exact (unlike the rejection
// sampler in math/rand, whose support and parameterization differ).
type Zipf struct {
	n     int
	theta float64
	cdf   []float64 // cdf[i] = P(rank <= i+1)
}

// NewZipf builds a Zipf distribution over ranks [1, n] with exponent
// theta >= 0. theta = 0 degenerates to the uniform distribution.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("rng: NewZipf with n=%d", n))
	}
	if theta < 0 {
		panic(fmt.Sprintf("rng: NewZipf with theta=%v", theta))
	}
	z := &Zipf{n: n, theta: theta, cdf: make([]float64, n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / pow(float64(i), theta)
		z.cdf[i-1] = sum
	}
	inv := 1 / sum
	for i := range z.cdf {
		z.cdf[i] *= inv
	}
	z.cdf[n-1] = 1 // guard against rounding
	return z
}

// pow avoids math.Pow for the trivial exponents that appear in tests
// and degenerate configurations; table construction dominates otherwise.
func pow(x, y float64) float64 {
	switch y {
	case 0:
		return 1
	case 1:
		return x
	}
	return math.Pow(x, y)
}

// Rank draws a rank in [1, N], rank 1 being the most popular.
func (z *Zipf) Rank(s *Stream) int {
	u := s.Float64()
	// First index whose cdf >= u.
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= z.n {
		i = z.n - 1
	}
	// sort.SearchFloat64s finds the first cdf[i] >= u; if cdf[i] == u we
	// still want that bucket, which SearchFloat64s already guarantees.
	return i + 1
}

// Index draws a zero-based index in [0, N): Rank-1. Convenient for
// addressing slices ordered by popularity.
func (z *Zipf) Index(s *Stream) int { return z.Rank(s) - 1 }

// P returns the probability mass of the given rank (1-based).
func (z *Zipf) P(rank int) float64 {
	if rank < 1 || rank > z.n {
		return 0
	}
	if rank == 1 {
		return z.cdf[0]
	}
	return z.cdf[rank-1] - z.cdf[rank-2]
}

// CDF returns P(rank <= r) for a 1-based rank r.
func (z *Zipf) CDF(r int) float64 {
	if r < 1 {
		return 0
	}
	if r > z.n {
		return 1
	}
	return z.cdf[r-1]
}
