package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ErrSaturatorClosed is returned by Saturator.Run after Close.
var ErrSaturatorClosed = errors.New("search: saturator is closed")

// Saturator is the Engine's machine-saturation serving mode: a fixed
// shard of worker goroutines, each owning one pinned core.Scratch (and
// therefore its own eventq.Monotone frontier queue), pulling chunks of
// queries from a shared admission queue and running every cascade
// against the Engine's shared topology view. The intended deployment
// is an immutable CSR — a *topology.CSR passed through Over, or the
// pinned epoch of WithSnapshotStore — which N cores read with zero
// synchronization.
//
// Pinning replaces Do's sync.Pool handshake on the hot path: a
// worker's scratch is at its steady-state high-water marks after the
// first few queries and never migrates between workers, so a saturated
// query costs no pool traffic, no growth pauses and no cross-core
// scratch bouncing. Admission is chunked: one channel operation
// carries 32 queries.
//
// Determinism: each query's stochastic-policy stream is derived from
// the Engine seed and the query's identifying fields alone (the same
// runner.DeriveSeed derivation Do uses), and scratch reuse is
// invisible to cascade semantics, so Run's results are byte-identical
// to issuing the same queries sequentially through Do — at any worker
// count, whichever worker served which chunk. The race-hammer suite
// (TestSaturationHammerByteIdentical) locks this down under -race.
//
// A Saturator is safe for concurrent use: any number of goroutines may
// call Run at once; their chunks interleave on the shared admission
// queue. Close must not be called concurrently with itself (concurrent
// Run calls are fine and fail with ErrSaturatorClosed once closed).
type Saturator struct {
	e     *Engine
	queue chan satBatch

	mu     sync.RWMutex // guards closed vs in-flight queue sends
	closed bool
	done   sync.WaitGroup // running workers
}

// satJob is the shared state of one Run call: its context, completion
// group, and the first error any chunk hit (which aborts the rest).
type satJob struct {
	ctx context.Context
	wg  sync.WaitGroup
	err atomic.Pointer[error]
}

func (j *satJob) fail(err error) { j.err.CompareAndSwap(nil, &err) }

// satBatch is one admission unit: a contiguous chunk of a Run call's
// query list plus the result window it fills. Chunks of one job write
// disjoint windows, so workers never synchronize on results.
type satBatch struct {
	job     *satJob
	base    int // index of qs[0] in the Run call's query list
	qs      []Query
	results []Result
}

// ServeOption configures a Saturator at construction.
type ServeOption func(*serveConfig)

type serveConfig struct {
	workers int
}

// admitChunk is how many queries one admission-queue operation carries:
// large enough to amortize the channel synchronization, small enough to
// balance load between workers.
const admitChunk = 32

// WithWorkers sets the worker-shard size; n <= 0 (the default) means
// GOMAXPROCS — one worker per schedulable core, the saturation point
// for the CPU-bound cascade.
func WithWorkers(n int) ServeOption {
	return func(c *serveConfig) {
		if n > 0 {
			c.workers = n
		}
	}
}

// Saturate starts the Engine's saturation serving mode and returns its
// handle. The worker goroutines live until Close; each owns a scratch
// pre-sized like the Engine's pooled ones (the graph's node count).
// The Engine remains fully usable alongside — Do
// traffic may interleave with saturation traffic on the same shared
// snapshot. No current option can fail, so the error is always nil.
func (e *Engine) Saturate(opts ...ServeOption) (*Saturator, error) {
	cfg := serveConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Saturator{
		e: e,
		// A small buffer keeps admission ahead of the shard without
		// letting an abandoned Run queue unbounded work.
		queue: make(chan satBatch, 2*cfg.workers),
	}
	s.done.Add(cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		go s.worker()
	}
	return s, nil
}

// worker is one shard member: it owns its scratch for its whole life.
func (s *Saturator) worker() {
	defer s.done.Done()
	scratch := core.NewScratch(s.e.nodes)
	for b := range s.queue {
		job := b.job
		for i := range b.qs {
			if job.err.Load() != nil {
				break // a sibling chunk failed; the job is aborted
			}
			q := &b.qs[i]
			r, err := s.e.runWith(job.ctx, q, s.e.querySeed(q), scratch)
			if err != nil {
				job.fail(fmt.Errorf("search: query %d: %w", b.base+i, err))
				break
			}
			b.results[i] = r
		}
		job.wg.Done()
	}
}

// Run drives qs through the worker shard and returns one Result per
// query, in input order, byte-identical to a sequential replay of the
// same queries through Do. The first query error aborts the call (a
// canceled context returns ctx.Err()); after Close it returns
// ErrSaturatorClosed.
func (s *Saturator) Run(ctx context.Context, qs []Query) ([]Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	results := make([]Result, len(qs))
	job := &satJob{ctx: ctx}
	chunks := (len(qs) + admitChunk - 1) / admitChunk
	job.wg.Add(chunks)

	// The read lock spans every send: Close's write lock therefore
	// cannot close the channel while a send is in flight.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrSaturatorClosed
	}
	for lo := 0; lo < len(qs); lo += admitChunk {
		hi := lo + admitChunk
		if hi > len(qs) {
			hi = len(qs)
		}
		s.queue <- satBatch{job: job, base: lo, qs: qs[lo:hi], results: results[lo:hi]}
	}
	s.mu.RUnlock()

	job.wg.Wait()
	if p := job.err.Load(); p != nil {
		return nil, *p
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Close stops the shard and waits for its workers to exit. In-flight
// Run calls complete; later ones return ErrSaturatorClosed. Close is
// idempotent.
func (s *Saturator) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.done.Wait()
}
