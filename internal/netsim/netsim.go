// Package netsim models the network substrate of Section 4.2 of the
// paper: each user is connected through one of three access-link
// classes (56K modem, cable modem, LAN), and the one-way delay between
// two users is a truncated normal whose mean is governed by the slower
// endpoint (300 ms, 150 ms or 70 ms, σ = 20 ms).
//
// The package also provides message accounting (per-hour counters used
// for the "query overhead" figures) so that every case study meters
// traffic the same way.
package netsim

import "fmt"

// BandwidthClass is a user's access-link class. Ordering matters: a
// larger value is a faster link, and pairwise delay is governed by the
// minimum of the two endpoint classes.
type BandwidthClass uint8

// The three classes of Section 4.2, equally likely per user.
const (
	Modem56K BandwidthClass = iota // 56 kbit/s dial-up
	Cable                          // cable modem
	LAN                            // campus/office LAN
	numClasses
)

// String implements fmt.Stringer.
func (c BandwidthClass) String() string {
	switch c {
	case Modem56K:
		return "56K"
	case Cable:
		return "cable"
	case LAN:
		return "LAN"
	default:
		return fmt.Sprintf("BandwidthClass(%d)", uint8(c))
	}
}

// Weight returns the benefit weight B of the class, used by the
// paper's benefit function B/R. The paper only requires bandwidth
// ordering; we use relative weights 1:2:4.
func (c BandwidthClass) Weight() float64 {
	switch c {
	case Modem56K:
		return 1
	case Cable:
		return 2
	case LAN:
		return 4
	default:
		panic(fmt.Sprintf("netsim: unknown bandwidth class %d", c))
	}
}

// meanDelaySec maps the governing (slower) class to the mean one-way
// delay of Section 4.2.
func (c BandwidthClass) meanDelaySec() float64 {
	switch c {
	case Modem56K:
		return 0.300
	case Cable:
		return 0.150
	case LAN:
		return 0.070
	default:
		panic(fmt.Sprintf("netsim: unknown bandwidth class %d", c))
	}
}

// DelaySigma is the standard deviation of the one-way delay (Section
// 4.2: "the standard deviation is set to 20ms for all cases").
const DelaySigma = 0.020

// delayBound is the truncation half-width. The scanned paper's interval
// is unreadable; ±2.5σ (= 50 ms) keeps all delays strictly positive for
// every class — including LAN's 70 ms mean — while discarding only
// ≈1.2 % of the normal mass.
const delayBound = 2.5 * DelaySigma

// Sampler draws pairwise one-way delays. It is satisfied by
// *rng.Stream; the small interface keeps netsim decoupled from the rng
// package for testing.
type Sampler interface {
	BoundedNormal(mean, stddev, lo, hi float64) float64
}

// Govern returns the class that governs the delay between endpoints a
// and b: the slower of the two.
func Govern(a, b BandwidthClass) BandwidthClass {
	if a < b {
		return a
	}
	return b
}

// OneWayDelay samples the one-way delay in seconds between endpoints of
// classes a and b.
func OneWayDelay(s Sampler, a, b BandwidthClass) float64 {
	mean := Govern(a, b).meanDelaySec()
	return s.BoundedNormal(mean, DelaySigma, mean-delayBound, mean+delayBound)
}

// AssignClasses returns n bandwidth classes, each drawn equally likely
// among the three classes (Section 4.2: "each user is equally likely to
// be connected through a 56K modem, a cable modem or a LAN").
func AssignClasses(intn func(int) int, n int) []BandwidthClass {
	out := make([]BandwidthClass, n)
	for i := range out {
		out[i] = BandwidthClass(intn(int(numClasses)))
	}
	return out
}
