package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// segments is how many equal consecutive parts of the completed calls
// throughput and the latency percentiles are taken over. The reported
// value is the midmean over the parts, so one or two disturbed stretches
// of a run — a noisy neighbour on a shared host, a burst of garbage
// collection — do not move it.
const segments = 10

// midmean is the mean of xs without its lowest and its highest fifth.
// The plain median of ten segments is as robust but throws away most
// of the run: on rest-lookup, where a segment's rate depends on how
// many of a few dozen random flips fall into it, the median of the
// segment rates varied 7% from run to run, their mean 3%.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/5 : len(s)-len(s)/5]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailMinBeyond is how many samples of a run must lie beyond the
// reported tail percentile for it to be trusted.
const tailMinBeyond = 10

// tailPercentile picks the tail percentile for a run of n samples: the
// highest of 99, 90, 75 and 50 that still has at least tailMinBeyond
// samples beyond it (50 when even that fails).
func tailPercentile(n int) int {
	for _, p := range []int{99, 90, 75} {
		if float64(n)*float64(100-p)/100 >= tailMinBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// call is one call into the program: how long it took and when it
// completed, in ns (end since the phase started).
type call struct {
	lat, end int64
}

// equalParts splits n calls into up to parts consecutive ranges of
// equal size (to within one).
func equalParts(n, parts int) [][2]int {
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for s := 0; s < parts; s++ {
		out = append(out, [2]int{n * s / parts, n * (s + 1) / parts})
	}
	return out
}

// segmentStats summarises each range of calls (in completion order):
// its rate in calls per second — counted from the previous range's last
// completion, the phase start for the first — and its median and
// tailP-th percentile latency in ms.
func segmentStats(calls []call, ranges [][2]int, tailP int) (rates, p50s, tails []float64) {
	prevEnd := int64(0)
	for _, r := range ranges {
		seg := calls[r[0]:r[1]]
		if len(seg) == 0 {
			continue
		}
		end := seg[len(seg)-1].end
		if dt := end - prevEnd; dt > 0 {
			rates = append(rates, float64(len(seg))/(float64(dt)/1e9))
		}
		prevEnd = end
		lat := make([]int64, len(seg))
		for i, c := range seg {
			lat[i] = c.lat
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50s = append(p50s, float64(percentile(lat, 50))/1e6)
		tails = append(tails, float64(percentile(lat, tailP))/1e6)
	}
	return rates, p50s, tails
}

// phase is what the timed phase of a workload measured.
type phase struct {
	// calls holds every call into the program, in completion order.
	calls []call
	// perCall is how many answers one call carries (1, or the slab
	// size); throughput, CPU and allocations are per answer.
	perCall int
	// ranges, when set, are the segments to summarise over instead of
	// ten equal parts (sim-paper: one per round).
	ranges [][2]int
	// attempted, failed and inexact count answers: failed ones errored,
	// were refused or timed out; inexact ones differ from the oracle
	// (every failed answer is also inexact). checked is how many
	// answers were compared with the oracle (attempted unless the
	// workload can only check a sample).
	attempted, failed, inexact, checked int64
	wall                                time.Duration
	cpu                                 time.Duration
	mallocs                             uint64
}

// logCap pre-sizes each client's call log so that growing it does not
// show up in the timed phase.
const logCap = 1 << 17

// opResult is what one call reported back to the closed loop.
type opResult struct {
	attempted, failed, inexact, checked int
}

// closedLoop runs op from clients goroutines for d: each goroutine
// issues its next call only when the previous one returned, taking the
// next plan index from a shared counter. It returns once every
// goroutine has finished the call it was in when d ran out.
func closedLoop(clients int, d time.Duration, perCall int, op func(client, i int) opResult) phase {
	return runLoop(clients, d, 0, perCall, op)
}

// closedLoopN is closedLoop for a fixed number of calls instead of a
// fixed time: warm-up passes, whose duration is part of set-up time.
func closedLoopN(clients, calls int, op func(client, i int) opResult) phase {
	return runLoop(clients, 0, calls, 1, op)
}

func runLoop(clients int, d time.Duration, calls, perCall int, op func(client, i int) opResult) phase {
	type clientLog struct {
		calls []call
		res   opResult
	}
	logs := make([]clientLog, clients)
	var next atomic.Int64
	var wg sync.WaitGroup

	runtime.GC()
	m0, c0 := mallocs(), cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			l.calls = make([]call, 0, logCap)
			for {
				t0 := time.Now()
				if d > 0 && !t0.Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if calls > 0 && i >= calls {
					return
				}
				r := op(c, i)
				t1 := time.Now()
				l.calls = append(l.calls, call{lat: int64(t1.Sub(t0)), end: int64(t1.Sub(start))})
				l.res.attempted += r.attempted
				l.res.failed += r.failed
				l.res.inexact += r.inexact
				l.res.checked += r.checked
			}
		}(c)
	}
	wg.Wait()
	ph := phase{perCall: perCall, wall: time.Since(start)}
	ph.cpu = cpuTime() - c0
	ph.mallocs = mallocs() - m0
	for _, l := range logs {
		ph.calls = append(ph.calls, l.calls...)
		ph.attempted += int64(l.res.attempted)
		ph.failed += int64(l.res.failed)
		ph.inexact += int64(l.res.inexact)
		ph.checked += int64(l.res.checked)
	}
	sort.Slice(ph.calls, func(i, j int) bool { return ph.calls[i].end < ph.calls[j].end })
	return ph
}

// endToEndMetrics turns a phase and the set-up times into the nine
// end-to-end metrics, and reports whether the outputs are correct:
// something was checked and at least minExact of it equals the oracle
// (or no more than slack answers differ, for runs too short for a
// share to mean anything).
func endToEndMetrics(ph phase, setups []float64, minExact float64, slack int64, notes map[string]string) (map[string]value, bool) {
	tailP := tailPercentile(len(ph.calls))
	ranges := ph.ranges
	if ranges == nil {
		ranges = equalParts(len(ph.calls), segments)
	}
	rates, p50s, tails := segmentStats(ph.calls, ranges, tailP)
	notes["latency_samples"] = fmt.Sprintf("%d calls in %d segments, tail is p%d; throughput and latencies are midmeans over the segments",
		len(ph.calls), len(ranges), tailP)
	if len(rates) > 0 {
		sorted := append([]float64(nil), rates...)
		sort.Float64s(sorted)
		notes["segment_rates"] = fmt.Sprintf("min %.6g, median %.6g, max %.6g per second",
			sorted[0]*float64(ph.perCall), medianFloat(rates)*float64(ph.perCall), sorted[len(sorted)-1]*float64(ph.perCall))
	}

	answers := float64(ph.attempted)
	exact := 0.0
	if ph.checked > 0 {
		exact = 1 - float64(ph.inexact)/float64(ph.checked)
	}
	m := map[string]value{
		"setup_s":          {medianFloat(setups), "s"},
		"throughput_per_s": {midmean(rates) * float64(ph.perCall), "1/s"},
		"latency_p50_ms":   {midmean(p50s), "ms"},
		"latency_tail_ms":  {midmean(tails), "ms"},
		"cpu_ms_per_op":    {float64(ph.cpu.Nanoseconds()) / 1e6 / answers, "ms"},
		"allocs_per_op":    {float64(ph.mallocs) / answers, "count"},
		"exact_share":      {exact, "share"},
		"ok_share":         {1 - float64(ph.failed)/answers, "share"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
	notes["failed_share"] = fmt.Sprintf("%g (%d of %d answers)", float64(ph.failed)/answers, ph.failed, ph.attempted)
	notes["checked"] = fmt.Sprintf("%d of %d answers compared with the oracle, %d differ", ph.checked, ph.attempted, ph.inexact)
	notes["timed_phase"] = fmt.Sprintf("%.3f s wall, %.3f s cpu", ph.wall.Seconds(), ph.cpu.Seconds())
	return m, ph.attempted > 0 && ph.checked > 0 && (exact >= minExact || ph.inexact <= slack)
}

// repeatSetup runs setup n times and returns every set-up time in
// seconds plus the last set-up's handle; the earlier ones are torn down
// and collected, so that what one set-up leaves behind does not count
// towards the next one's time or the process's peak memory. Set-up is
// the program's own start-up — build or boot, connect, and a fixed
// warm-up pass — and excludes generating the inputs.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) ([]float64, T, error) {
	var zero, last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
			last = zero
		}
		runtime.GC()
		start := time.Now()
		h, err := setup()
		if err != nil {
			return nil, zero, err
		}
		times = append(times, time.Since(start).Seconds())
		last = h
	}
	return times, last, nil
}
