// Package rng provides the deterministic random-number substrate used by
// every simulation in this repository.
//
// All experiments in the paper are driven by four distributions: Zipf
// (song popularity and user-to-category assignment, θ = 0.9), Gaussian
// (library sizes, mean 200 / σ 50), exponential (on-line and off-line
// session durations, mean 3 h), and a bounded normal (one-way link
// delays, σ = 20 ms). This package implements all of them on top of a
// splittable splitmix64 generator so that every node, workload and
// experiment can own an independent, reproducible stream derived from a
// single experiment seed.
//
// The package intentionally does not use math/rand: reproducibility
// across Go versions matters more here than raw throughput, and
// splitmix64 is both faster than the default source and trivially
// splittable.
package rng

import (
	"fmt"
	"math"
)

// Stream is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; derive one Stream per goroutine with Split.
type Stream struct {
	state uint64
	// spare holds a cached second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// New returns a Stream seeded with seed. Two Streams built from the
// same seed produce identical output sequences.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Split derives an independent child stream. The child is seeded from
// the parent's next output mixed with a distinct constant so that
// parent and child sequences do not overlap in practice.
func (s *Stream) Split() *Stream {
	return &Stream{state: mix64(s.Uint64() ^ 0x9e3779b97f4a7c15)}
}

// SplitN derives n independent child streams in one call.
func (s *Stream) SplitN(n int) []*Stream {
	out := make([]*Stream, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// mix64 is the splitmix64 finalizer (Steele, Lea, Flood 2014).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 high bits scaled by 2^-53 gives every representable double in
	// [0,1) with equal probability per ulp-bucket.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's nearly-divisionless bounded sampling. The bias for
	// n < 2^32 is below 2^-32 which is irrelevant at simulation scale,
	// but we still debias with the standard rejection step.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// bits128 returns the high and low 64-bit halves of v*bound.
func bits128(v, bound uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0 := v & mask32
	x1 := v >> 32
	y0 := bound & mask32
	y1 := bound >> 32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = v * bound
	return hi, lo
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp called with mean=%v", mean))
	}
	// Inverse CDF; guard against Float64 returning exactly 0.
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the polar Box-Muller transform.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	var u, v, q float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(q) / q)
	s.spare = v * f
	s.hasSpare = true
	return mean + stddev*u*f
}

// BoundedNormal returns a Normal(mean, stddev) sample truncated by
// rejection to [lo, hi]. This is the paper's link-delay distribution
// ("the standard deviation is set to 20ms ... and values are restricted
// in the interval"). It panics if the interval does not intersect a
// plausible mass region (to catch configuration bugs early).
func (s *Stream) BoundedNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("rng: BoundedNormal interval [%v,%v] is empty", lo, hi))
	}
	if mean+8*stddev < lo || mean-8*stddev > hi {
		panic(fmt.Sprintf("rng: BoundedNormal interval [%v,%v] is >8σ from mean %v", lo, hi, mean))
	}
	for i := 0; ; i++ {
		x := s.Normal(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
		// Degenerate configurations (interval far in a tail) would make
		// rejection slow; clamp after a generous number of attempts.
		if i == 1024 {
			return math.Min(math.Max(x, lo), hi)
		}
	}
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}
