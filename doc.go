// Package repro is a reproduction of "A General Framework for
// Searching in Distributed Data Repositories" (Bakiras, Kalnis,
// Loukopoulos, Ng — IPDPS 2003).
//
// The public API is pkg/search: a pooled, context-aware, streaming
// query facade (Do/Stream/Batch/Saturate) over the cascade core, with
// forward policies selected by name and zero-downtime serving
// under churn (WithSnapshotStore: queries pin immutable snapshot
// epochs that a writer swaps atomically). The implementation lives
// under internal/: the framework core (search, exploration, neighbor
// update) in internal/core, its substrates (simulator, network model,
// topology with CSR snapshots and the epoch store, statistics,
// digests, workloads) in sibling packages, the shared session driver
// in internal/driver, and three case-study bindings (gnutella,
// webcache, peerolap) — all of which search through the facade.
// internal/runner shards independent experiment cells across a worker
// pool with deterministic results at any worker count. cmd/repro
// regenerates every figure of the paper's evaluation; benchmarks/dbench
// (a module of its own, run by benchmarks/run.sh) is the repository's
// benchmark. See README.md, DESIGN.md and EXPERIMENTS.md.
package repro
