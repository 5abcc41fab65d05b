// Package digest implements the summarized-information structure that
// Algo 1 of the paper refers to ("use summary info if available"):
// Bloom filters over content keys (the cache-digest approach used by
// Squid). The Local Indices technique of Yang & Garcia-Molina is
// core.Index.
//
// Digests let a search policy skip neighbors that certainly do not hold
// the requested key: Bloom filters have no false negatives, so skipping
// on a negative membership test never loses results.
package digest

import (
	"fmt"
	"math"
)

// Key is a content identifier (a song, page or chunk ID hashed by the
// application).
type Key uint64

// Bloom is a standard Bloom filter with k hash functions derived from
// one 64-bit mix via the Kirsch-Mitzenmacher double-hashing scheme.
type Bloom struct {
	bits  []uint64
	nbits uint64
	k     int
}

// NewBloom sizes a filter for the expected number of keys n at the
// target false-positive rate fp (0 < fp < 1).
func NewBloom(n int, fp float64) *Bloom {
	if n <= 0 {
		panic(fmt.Sprintf("digest: NewBloom with n=%d", n))
	}
	if fp <= 0 || fp >= 1 {
		panic(fmt.Sprintf("digest: NewBloom with fp=%v", fp))
	}
	// Optimal parameters: m = -n ln fp / (ln 2)^2, k = (m/n) ln 2.
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), nbits: m, k: k}
}

// hash2 derives two independent 64-bit hashes from a key.
func hash2(key Key) (h1, h2 uint64) {
	z := uint64(key)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	h1 = z ^ (z >> 31)
	z = h1 * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 29)) * 0xff51afd7ed558ccd
	h2 = z ^ (z >> 32)
	// h2 must be odd so the double-hash probes cover the bit space.
	h2 |= 1
	return
}

// Add inserts key.
func (b *Bloom) Add(key Key) {
	h1, h2 := hash2(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// Contains reports whether key may be present. False positives are
// possible; false negatives are not.
func (b *Bloom) Contains(key Key) bool {
	h1, h2 := hash2(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
