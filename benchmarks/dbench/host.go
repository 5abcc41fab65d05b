package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp records the machine and build a result came from, so a run
// on a slow or differently sized host is recognisable from its own
// record.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// RefKernelMillis is the reference kernel (refKernelMillis) timed
	// before and after the workload.
	RefKernelMillis [2]float64 `json:"ref_kernel_ms"`
}

func (e envStamp) String() string {
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d cpu=%q go=%s commit=%s",
		e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, e.Commit)
}

func stampEnv() envStamp {
	e := envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// The benchmark is built from the checkout it measures, so the
	// binary's own VCS stamp is the commit (absent outside git).
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refKernelMillis times a fixed pure-Go kernel — a full BFS over a
// 200k-node ring-with-chords graph — and returns the median of 41
// passes in milliseconds. It touches nothing of the program, so its
// value moves only with the host.
func refKernelMillis() float64 {
	const n = 200_000
	adj := make([]int32, 0, 4*n)
	for i := 0; i < n; i++ {
		adj = append(adj, int32((i+1)%n), int32((i+n-1)%n), int32((i*7+13)%n), int32((i*31+5)%n))
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	pass := func() float64 {
		for i := range dist {
			dist[i] = -1
		}
		start := time.Now()
		queue = append(queue[:0], 0)
		dist[0] = 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[4*int(u) : 4*int(u)+4] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e6
	}
	times := make([]float64, 41)
	for i := range times {
		times[i] = pass()
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MiB, falling back to getrusage's ru_maxrss where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
