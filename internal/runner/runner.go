// Package runner schedules independent simulation cells across a
// bounded worker pool.
//
// Every experiment in internal/experiments decomposes into cells: one
// isolated sim.Engine run each (a (mode, TTL) pair of Figure 1, one θ
// column of Figure 3(b), one ablation variant, ...). The engine itself
// is deliberately single-threaded for bit-for-bit reproducibility —
// see internal/sim — so all parallelism in this repository lives here,
// one level above it.
//
// The runner guarantees that results are independent of the worker
// count and of scheduling order:
//
//   - each cell's seed is fixed before execution starts (either set
//     explicitly by the caller or derived via DeriveSeed from stable
//     labels), never from shared mutable state;
//   - results are delivered in submission order, not completion order;
//   - a panicking cell is isolated (recovered, optionally retried) and
//     recorded in its Result instead of tearing down the process.
//
// Consequently Run with 1 worker and Run with N workers produce
// identical Result slices, and the cells.json artifact written by
// WriteArtifacts is byte-identical at any worker count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/rng"
)

// Cell is one independent unit of simulation work. Cells must not
// share mutable state: the runner executes them concurrently.
type Cell struct {
	// Experiment groups cells into one logical experiment (one figure,
	// one ablation); artifacts and summaries aggregate by it.
	Experiment string
	// Name identifies the cell within its experiment ("static",
	// "dynamic-theta4", ...). (Experiment, Name) should be unique.
	Name string
	// Seed is the RNG seed passed to Run. Callers set it at
	// construction time — typically via DeriveSeed, or shared across
	// cells when an experiment needs paired workloads — so that it
	// never depends on scheduling.
	Seed uint64
	// Run executes the cell. The returned value must be
	// JSON-marshalable; it lands in cells.json verbatim. Long-running
	// cells may honor ctx, but are not required to.
	Run func(ctx context.Context, seed uint64) (any, error)
}

// Result is the outcome of one cell. The JSON-visible fields are fully
// deterministic (independent of worker count and wall clock); timing
// and panic stacks are kept out of the marshaled form so artifacts
// stay byte-comparable across runs.
type Result struct {
	Experiment string `json:"experiment"`
	Cell       string `json:"cell"`
	Seed       uint64 `json:"seed"`
	Value      any    `json:"value,omitempty"`
	Err        string `json:"error,omitempty"`
	// Attempts counts executions including retries. Simulations are
	// deterministic, so this too is stable across worker counts.
	Attempts int `json:"attempts"`
	// Wall is the cell's execution time (measurement only).
	Wall time.Duration `json:"-"`
	// Stack holds the most recent panic stack, for diagnostics.
	Stack string `json:"-"`
}

// Progress is a snapshot delivered after each completed cell.
type Progress struct {
	// Done and Total count cells; Failed counts cells whose final
	// attempt still errored.
	Done, Total, Failed int
	// Experiment and Cell identify the cell that just finished.
	Experiment, Cell string
	// Elapsed is the time since Run started; ETA extrapolates the
	// remaining time from the mean completed-cell rate.
	Elapsed, ETA time.Duration
}

// Options configures one Run invocation.
type Options struct {
	// Workers bounds concurrent cells; <= 0 means GOMAXPROCS.
	Workers int
	// Retries is how many times a failed (errored or panicked) cell is
	// re-executed before its error is recorded.
	Retries int
	// OnProgress, when non-nil, is invoked after every completed cell.
	// Calls are serialized; the callback must not block for long.
	OnProgress func(Progress)
}

// skippedErr marks cells never started because the context was
// canceled first.
const skippedErr = "skipped: run canceled"

// Run executes cells on a bounded worker pool and returns one Result
// per cell, in submission order. Cell failures do not abort the run or
// produce an error here — they are recorded per Result (see
// FirstError). The only error Run returns is the context's, in which
// case cells not yet started carry a "skipped" Result.
func Run(ctx context.Context, cells []Cell, opts Options) ([]Result, error) {
	results := make([]Result, len(cells))
	for i, c := range cells {
		results[i] = Result{Experiment: c.Experiment, Cell: c.Name, Seed: c.Seed, Err: skippedErr}
	}
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	start := time.Now()
	var (
		mu           sync.Mutex
		done, failed int
	)
	report := func(i int) {
		if opts.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		if results[i].Err != "" {
			failed++
		}
		elapsed := time.Since(start)
		eta := time.Duration(float64(elapsed) / float64(done) * float64(len(cells)-done))
		opts.OnProgress(Progress{
			Done: done, Total: len(cells), Failed: failed,
			Experiment: cells[i].Experiment, Cell: cells[i].Name,
			Elapsed: elapsed, ETA: eta,
		})
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i] = runCell(ctx, cells[i], opts.Retries)
				report(i)
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()
	return results, ctx.Err()
}

// runCell executes one cell with panic isolation and retry.
func runCell(ctx context.Context, c Cell, retries int) Result {
	r := Result{Experiment: c.Experiment, Cell: c.Name, Seed: c.Seed}
	start := time.Now()
	for attempt := 0; attempt <= retries; attempt++ {
		r.Attempts = attempt + 1
		v, err, stack := invoke(ctx, c)
		if err == nil {
			r.Value, r.Err, r.Stack = v, "", ""
			break
		}
		r.Value, r.Err, r.Stack = nil, err.Error(), stack
		if ctx.Err() != nil {
			break // don't retry into a canceled run
		}
	}
	r.Wall = time.Since(start)
	return r
}

// invoke runs the cell body once, converting panics into errors.
func invoke(ctx context.Context, c Cell) (v any, err error, stack string) {
	defer func() {
		if rec := recover(); rec != nil {
			v = nil
			err = fmt.Errorf("cell %s/%s panicked: %v", c.Experiment, c.Name, rec)
			stack = string(debug.Stack())
		}
	}()
	v, err = c.Run(ctx, c.Seed)
	return v, err, ""
}

// FirstError returns the first recorded cell failure, or nil.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != "" {
			return fmt.Errorf("runner: cell %s/%s (seed %d, %d attempts): %s",
				r.Experiment, r.Cell, r.Seed, r.Attempts, r.Err)
		}
	}
	return nil
}

// Failed counts results whose final attempt errored.
func Failed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// DeriveSeed maps (base, labels...) to a stable 64-bit seed: FNV-1a
// over the base seed and the length-prefixed labels (so distinct label
// lists are distinct byte streams even with arbitrary label contents)
// followed by the splitmix64 finalizer (rng.Mix64) for avalanche. The
// same inputs yield the same seed on every platform and at every worker
// count; distinct labels yield independent streams. The result is never
// 0, which some RNGs treat as a sentinel.
func DeriveSeed(base uint64, labels ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	mix64(base)
	for _, l := range labels {
		mix64(uint64(len(l)))
		for i := 0; i < len(l); i++ {
			mix(l[i])
		}
	}
	h = rng.Mix64(h)
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}
