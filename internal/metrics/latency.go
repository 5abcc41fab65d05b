package metrics

import (
	"sync/atomic"
	"time"
)

// latencyBuckets is the number of fixed geometric buckets a
// LatencyHistogram carries. Bucket k covers [2^k, 2^(k+1)) microseconds,
// so 28 buckets span 1µs to ~4.5 minutes — every latency a serving
// plane can plausibly report, with ~2x resolution at every scale.
const latencyBuckets = 28

// LatencyHistogram is a fixed-bucket latency histogram safe for
// concurrent writers and readers without locks: every bucket is an
// atomic counter, so a serving hot path records one observation with a
// single atomic add and no allocation. Buckets are fixed powers of two
// in microseconds, which keeps the memory footprint constant and the
// quantile estimate within 2x at every scale — exactly enough to tell a
// 100µs path from a 100ms one, which is what a tail-latency dashboard
// needs.
//
// The zero value is ready to use.
type LatencyHistogram struct {
	buckets [latencyBuckets]atomic.Uint64
	count   atomic.Uint64
}

// latencyBucket maps a duration to its bucket index.
func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := 0
	for us > 1 && b < latencyBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one latency sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[latencyBucket(d)].Add(1)
	h.count.Add(1)
}

// N returns the number of recorded samples.
func (h *LatencyHistogram) N() uint64 { return h.count.Load() }

// QuantileMicros returns an approximate q-quantile (q in [0,1]) in
// microseconds, assuming uniform density within each power-of-two
// bucket. Concurrent writers may skew an in-flight read by a few
// samples; the estimate is for dashboards, not invariants.
func (h *LatencyHistogram) QuantileMicros(q float64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var counts [latencyBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	acc := 0.0
	for i, c := range counts {
		next := acc + float64(c)
		if next >= target && c > 0 {
			lo := float64(uint64(1) << i) // bucket i covers [2^i, 2^(i+1)) µs
			frac := (target - acc) / float64(c)
			return uint64(lo + frac*lo)
		}
		acc = next
	}
	return uint64(1) << (latencyBuckets - 1)
}

// Latency returns the histogram registered under name, creating it on
// first use. Like Counter, the returned pointer is stable: hot paths
// resolve once and Observe through the pointer.
func (r *Registry) Latency(name string) *LatencyHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.h[name]
	if !ok {
		if r.h == nil {
			r.h = make(map[string]*LatencyHistogram)
		}
		h = &LatencyHistogram{}
		r.h[name] = h
	}
	return h
}

// latencySnapshot folds every registered histogram into the snapshot
// map as <name>_count and <name>_{p50,p95,p99}_us — tail latency in
// the same uint64 counter map /v1/stats already serves.
func (r *Registry) latencySnapshot(out map[string]uint64) {
	for name, h := range r.h {
		if h.N() == 0 {
			continue // an untouched endpoint has no tail to report
		}
		out[name+"_count"] = h.N()
		out[name+"_p50_us"] = h.QuantileMicros(0.50)
		out[name+"_p95_us"] = h.QuantileMicros(0.95)
		out[name+"_p99_us"] = h.QuantileMicros(0.99)
	}
}
