package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestLatencyQuantiles: quantiles of a known sample set must land in
// the right power-of-two bucket (the histogram trades exactness for
// lock-free fixed memory, so the assertion is bucket-level: within 2x).
func TestLatencyQuantiles(t *testing.T) {
	var h LatencyHistogram
	// 90 fast samples at ~100µs, 10 slow at ~50ms: p50 must read as
	// ~100µs-scale, p99 as ~50ms-scale.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d, want 100", h.N())
	}
	if p50 := h.QuantileMicros(0.50); p50 < 64 || p50 > 256 {
		t.Fatalf("p50 = %dµs, want ~100µs (within its 2x bucket)", p50)
	}
	if p99 := h.QuantileMicros(0.99); p99 < 32_000 || p99 > 131_072 {
		t.Fatalf("p99 = %dµs, want ~50ms (within its 2x bucket)", p99)
	}
}

// TestLatencyEdgeSamples: zero, negative and absurdly large samples
// must not panic or corrupt the counts.
func TestLatencyEdgeSamples(t *testing.T) {
	var h LatencyHistogram
	h.Observe(0)
	h.Observe(-5 * time.Second)
	h.Observe(24 * time.Hour)
	if h.N() != 3 {
		t.Fatalf("N = %d, want 3", h.N())
	}
	if q := h.QuantileMicros(1); q == 0 {
		t.Fatal("q100 = 0 with an out-of-range sample present")
	}
	// Quantile bounds clamp instead of panicking.
	_ = h.QuantileMicros(-1)
	_ = h.QuantileMicros(2)
}

// TestLatencyEmpty: an untouched histogram reports zeros and stays out
// of the registry snapshot.
func TestLatencyEmpty(t *testing.T) {
	var h LatencyHistogram
	if h.QuantileMicros(0.99) != 0 || h.N() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	r := NewRegistry()
	r.Latency("http_idle") // registered but never observed
	r.Latency("http_query").Observe(3 * time.Millisecond)
	snap := r.Snapshot()
	if _, ok := snap["http_idle_p50_us"]; ok {
		t.Fatal("untouched histogram leaked into the snapshot")
	}
	if snap["http_query_count"] != 1 {
		t.Fatalf("http_query_count = %d, want 1", snap["http_query_count"])
	}
	if p99 := snap["http_query_p99_us"]; p99 < 2048 || p99 > 4096 {
		t.Fatalf("http_query_p99_us = %d, want in 3ms's bucket", p99)
	}
}

// TestLatencyConcurrent hammers one histogram from many goroutines
// while a reader polls quantiles — the lock-free contract under -race.
func TestLatencyConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Latency("hammer")
	const writers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.QuantileMicros(0.95)
				_ = r.Snapshot()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i%5000) * time.Microsecond)
			}
		}(w)
	}
	for h.N() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if h.N() != writers*per {
		t.Fatalf("N = %d, want %d", h.N(), writers*per)
	}
}

// TestLatencyStablePointer: Latency must hand back the same histogram
// for the same name.
func TestLatencyStablePointer(t *testing.T) {
	r := NewRegistry()
	if r.Latency("a") != r.Latency("a") {
		t.Fatal("Latency returned different pointers for one name")
	}
	if r.Latency("a") == r.Latency("b") {
		t.Fatal("distinct names shared a histogram")
	}
}
