// Package search is the public, stable API of this repository: a
// pooled, context-aware query facade over the cascade core that
// reproduces conf_ipps_BakirasKLN03's generic search framework.
//
// Everything below pkg/search lives in internal/ packages; this package
// is the supported way in. An Engine is constructed once per network
// with functional options and is safe for concurrent use:
//
//	eng, err := search.New(net,
//	    search.WithPolicy("directed-bft-3"),
//	    search.WithTTL(7))
//
// Three call shapes cover the workloads:
//
//   - Do: one-shot — run a search to completion, return the Result.
//   - Saturate: sustained serving — N resident workers with pinned
//     scratch state drain a chunked admission queue; results are
//     byte-identical to sequential Do at any worker count, because
//     every query's seed derives from the query alone.
//   - Explore: a metadata-only census of the TTL-hop neighborhood
//     (Algo 2) that fetches nothing.
//
// Batch is shorthand for Saturate + Run + Close on a one-call shard.
//
// Every call accepts a context.Context; cancellation is checked
// between cascade hops, so even 100k-node floods stop promptly.
//
// # Serving under churn
//
// A static Engine reads one topology for its whole life (a live
// Network view, or an immutable *topology.CSR passed through Over). For
// workloads where the topology churns while queries are in flight,
// WithSnapshotStore binds the Engine to a topology.SnapshotStore
// instead: every query — through Do or a Saturator —
// acquires one immutable snapshot epoch, runs entirely on it, and
// tags Result.Epoch with the epoch it saw. A single writer applies
// churn deltas through the store, which re-freezes into an off-duty
// buffer and publishes by atomic pointer swap: queries never wait for
// a re-freeze, and a query's outcome is byte-identical to a quiesced
// replay against its pinned epoch. See the WithSnapshotStore and
// Engine.Saturate examples, and DESIGN.md ("Snapshot lifecycle &
// epoch reclamation") for the reclamation protocol.
//
// # Policies
//
// Forward policies — which neighbors receive a query at each hop — are
// a fixed set selected by name: PolicyByName round-trips each of
// core's ForwardPolicy implementations ("flood", "random-<k>",
// "directed-bft-<k>", "digest-guided"), making them config- and
// flag-selectable. There is no registry to extend; WithForward installs
// a policy instance directly, for one carrying shared state.
//
// # Pooling
//
// The Engine owns a sync.Pool of core.Scratch (the cascade's flat-slice
// working memory), so a steady-state query through the facade costs the
// same small constant number of heap allocations as the expert-only
// core.RunScratch path, while returned Results are always caller-owned
// — no aliasing contract to misuse. TestEngineSteadyStateAllocs holds
// this property.
package search
