package search

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Public aliases: the facade speaks the same vocabulary as the core so
// results and policies flow between layers without conversion.
type (
	// NodeID identifies a repository (dense 0-based index).
	NodeID = topology.NodeID
	// Key identifies one content item.
	Key = core.Key
	// Hit is one positive answer: holder, forward-path hops, and the
	// delay until the reply reached the origin.
	Hit = core.Result
	// DelayFunc samples one-way hop delays in seconds.
	DelayFunc = core.DelayFunc
)

// Network is the view of a repository network an Engine searches: the
// neighbor graph plus local content membership. Implementations must be
// safe for concurrent use if the Engine is shared across goroutines —
// static topologies and read-only content trivially are.
type Network interface {
	// Out returns the outgoing neighbors of id; the Engine does not
	// mutate the returned slice.
	Out(id NodeID) []NodeID
	// Online reports whether a node currently participates.
	Online(id NodeID) bool
	// HasContent reports whether node id holds key locally.
	HasContent(id NodeID, key Key) bool
}

// Over combines a topology view and a content oracle into a Network —
// the bridge for applications that keep the two concerns on separate
// types (every simulator in this repository does).
func Over(g core.Graph, c core.Content) Network {
	return composite{g, c}
}

type composite struct {
	core.Graph
	core.Content
}

// OverContent wraps a bare content oracle into a Network whose topology
// half is empty — the natural companion to WithSnapshotStore, where the
// graph comes from the pinned snapshot and the Network's topology
// methods are never consulted.
func OverContent(c core.Content) Network {
	return composite{emptyGraph{}, c}
}

// emptyGraph is the placeholder topology half of OverContent.
type emptyGraph struct{}

func (emptyGraph) Out(NodeID) []NodeID { return nil }
func (emptyGraph) Online(NodeID) bool  { return true }

// Query is one search request. The zero value of every field defers to
// the Engine's configured default, so steady-state callers populate
// only Key and Origin.
type Query struct {
	// ID tags the query in observer callbacks and error messages; the
	// cascade itself keys duplicate suppression on per-call state, so
	// uniqueness is not required for correctness. A random-<k> policy,
	// however, derives its per-query rng stream from (ID, Origin, Key)
	// alone — a caller retrying the same query under random-<k> must
	// vary ID to vary the random forwarding decisions (as with
	// Exploration.ID).
	ID uint64
	// Key is the content item requested.
	Key Key
	// Origin is the issuing repository.
	Origin NodeID
	// TTL bounds propagation in hops; 0 uses the Engine default
	// (WithTTL).
	TTL int
	// MaxResults terminates the search at this many results; 0 uses the
	// Engine default, negative means explicitly unlimited.
	MaxResults int
	// ForwardWhenHit makes serving nodes keep propagating; false defers
	// to the Engine default (WithForwardWhenHit).
	ForwardWhenHit bool
	// OnMessage, when non-nil, observes every query propagation of this
	// call, replacing the Engine-wide WithOnMessage observer.
	OnMessage func(from, to NodeID)
}

// Result is everything one search produced. It is owned by the caller:
// unlike core.Outcome's pooled buffers, Hits never aliases Engine
// state.
type Result struct {
	// Hits lists every positive answer in arrival order.
	Hits []Hit
	// Messages counts query propagations (including duplicates
	// discarded on arrival); ReplyMessages counts reverse-route reply
	// hops.
	Messages, ReplyMessages uint64
	// Visited is the number of distinct repositories that processed the
	// query (excluding the origin).
	Visited int
	// FirstResultDelay is the smallest hit delay, 0 when no hits.
	FirstResultDelay float64
	// Epoch is the snapshot-store epoch that served the query — the
	// whole cascade ran on this one pinned snapshot, never a mix of two.
	// Zero unless the Engine was built with WithSnapshotStore.
	Epoch uint64
}

// Found reports whether at least one result was obtained.
func (r *Result) Found() bool { return len(r.Hits) > 0 }

// Exploration is a metadata-only census of the TTL-hop neighborhood
// (Algo 2): visited repositories report which of Keys they hold, and
// nothing is fetched.
type Exploration struct {
	// ID distinguishes repeated exploration rounds: stochastic policies
	// derive their per-call stream from (engine seed, Origin, ID), so a
	// periodic census must vary ID (a round counter) or it will probe
	// the same random neighbors every time.
	ID uint64
	// Keys is the set of items to probe for.
	Keys []Key
	// Origin is the initiating repository.
	Origin NodeID
	// TTL bounds propagation; 0 uses the Engine default.
	TTL int
	// OnMessage observes this call's propagations (exploration messages
	// are usually metered separately from queries).
	OnMessage func(from, to NodeID)
}

// Engine is the concurrency-safe entry point to the cascade core: one
// Engine per searched network, shared by any number of goroutines. All
// configuration is frozen at New; per-call working memory comes from an
// internal sync.Pool of core.Scratch, so a steady-state query costs a
// small constant number of allocations (see BenchmarkEnginePooled).
//
// Concurrency safety extends exactly as far as the injected
// dependencies': the Network, DelayFunc, policy and observers are
// invoked concurrently iff the caller searches concurrently. The
// single-threaded simulators share one Engine with their single loop;
// serving frontends inject immutable views.
type Engine struct {
	template  core.Cascade // copied per call, never mutated after New
	deepening *core.IterativeDeepening

	ttl            int
	maxResults     int
	forwardWhenHit bool
	seed           uint64
	nodes          int // node count when the graph knows one; 0 = unknown
	store          *topology.SnapshotStore

	// newPolicy, when non-nil, builds a fresh per-query policy from a
	// derived seed (the random-<k> family); otherwise
	// template.Forward is shared by all calls.
	newPolicy func(seed uint64) core.ForwardPolicy

	scratch sync.Pool
}

// config collects option state before validation.
type config struct {
	forward    core.ForwardPolicy
	policyName string
	env        PolicyEnv

	ttl            int
	maxResults     int
	forwardWhenHit bool
	deepening      *core.IterativeDeepening
	delay          DelayFunc
	ledger         func(id NodeID) *stats.Ledger
	index          core.Index
	onMessage      func(from, to NodeID)
	seed           uint64
	store          *topology.SnapshotStore

	err error
}

// Option configures an Engine at construction.
type Option func(*config)

// WithPolicy selects the forward policy by name (see PolicyByName:
// "flood", "random-2", "directed-bft-3", "digest-guided"). A
// "random-<k>" policy is instantiated per query with a deterministic
// stream derived from WithSeed, so shared-Engine results do not depend
// on goroutine interleaving.
func WithPolicy(name string) Option {
	return func(c *config) { c.policyName = name; c.forward = nil }
}

// WithForward installs a concrete policy instance, bypassing
// PolicyByName — the escape hatch for policies carrying closures or shared
// state (a simulator's RandomK over its own rng stream). The caller
// owns that instance's concurrency story.
func WithForward(p core.ForwardPolicy) Option {
	return func(c *config) { c.forward = p; c.policyName = "" }
}

// WithTTL sets the default hop bound applied to queries that leave
// Query.TTL zero.
func WithTTL(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail(fmt.Errorf("search: negative default TTL %d", n))
			return
		}
		c.ttl = n
	}
}

// WithMaxResults sets the default terminating result count for queries
// that leave Query.MaxResults zero.
func WithMaxResults(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail(fmt.Errorf("search: negative default MaxResults %d", n))
			return
		}
		c.maxResults = n
	}
}

// WithForwardWhenHit makes serving nodes keep propagating queries by
// default (music-sharing semantics; the paper's dynamic variant stops
// at serving nodes to limit messages).
func WithForwardWhenHit(on bool) Option {
	return func(c *config) { c.forwardWhenHit = on }
}

// WithDeepening replaces single TTL-bound searches with iterative
// deepening: successive cascades at the given strictly-increasing
// depths until the query is satisfied, waiting cycleTimeout simulated
// seconds between cycles. Query/default TTLs are ignored; depths
// govern.
func WithDeepening(depths []int, cycleTimeout float64) Option {
	return func(c *config) {
		if len(depths) == 0 {
			c.fail(fmt.Errorf("search: WithDeepening needs at least one depth"))
			return
		}
		for i, d := range depths {
			if d < 1 || (i > 0 && d <= depths[i-1]) {
				c.fail(fmt.Errorf("search: deepening schedule %v not strictly increasing from 1", depths))
				return
			}
		}
		c.deepening = &core.IterativeDeepening{
			Depths:       append([]int(nil), depths...),
			CycleTimeout: cycleTimeout,
		}
	}
}

// WithDelay installs the per-hop delay model; the default is zero
// delay (hop-count-only searches).
func WithDelay(d DelayFunc) Option {
	return func(c *config) { c.delay = d }
}

// WithLedgers exposes per-node statistics ledgers to history-based
// policies (directed-bft).
func WithLedgers(f func(id NodeID) *stats.Ledger) Option {
	return func(c *config) { c.ledger = f }
}

// WithIndex enables the Local Indices technique: visited nodes answer
// on behalf of peers within the index radius. Callers typically
// shorten the TTL by Index.Radius().
func WithIndex(ix core.Index) Option {
	return func(c *config) { c.index = ix }
}

// WithDigest supplies the digest oracle (and optional fallback policy)
// the "digest-guided" policy requires.
func WithDigest(mayHold func(id NodeID, key Key) bool, fallback core.ForwardPolicy) Option {
	return func(c *config) { c.env.MayHold = mayHold; c.env.Fallback = fallback }
}

// WithOnMessage installs an Engine-wide propagation observer,
// overridden per call by Query.OnMessage.
func WithOnMessage(f func(from, to NodeID)) Option {
	return func(c *config) { c.onMessage = f }
}

// WithSeed sets the base seed from which per-query streams for
// stochastic policies are derived via runner.DeriveSeed. The default
// is 1.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithSnapshotStore serves every search from a live
// topology.SnapshotStore instead of a fixed graph: each call — Do,
// Explore and every Saturator query — pins the store's current epoch
// for exactly the duration of its cascade, so a query always runs on
// one internally-consistent CSR snapshot even while the store's writer
// publishes churn epochs concurrently. The pin engages the cascade
// core's devirtualized CSR fast path, as Over does for a caller-held
// *topology.CSR; Result.Epoch records which epoch served each query.
//
// The Network passed to New supplies only the content oracle
// (HasContent); its topology methods are never consulted — the pinned
// snapshot is the graph. Snapshots treat every node as online:
// liveness churn must be expressed as topology deltas (isolate on
// logoff) applied through the store's writer.
//
// Scratch pre-sizing defaults to the store's node count.
func WithSnapshotStore(store *topology.SnapshotStore) Option {
	return func(c *config) {
		if store == nil {
			c.fail(fmt.Errorf("search: WithSnapshotStore with nil store"))
			return
		}
		c.store = store
	}
}

func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// New builds an Engine over net. Without options the Engine floods with
// zero delay and the queries' own TTLs; every aspect is overridable:
//
//	eng, err := search.New(net,
//	    search.WithPolicy("directed-bft-3"),
//	    search.WithLedgers(ledgerOf),
//	    search.WithTTL(7))
func New(net Network, opts ...Option) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("search: New with nil Network")
	}
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}

	e := &Engine{
		deepening:      cfg.deepening,
		ttl:            cfg.ttl,
		maxResults:     cfg.maxResults,
		forwardWhenHit: cfg.forwardWhenHit,
		seed:           cfg.seed,
	}
	graph := graphOf(net)
	if cfg.store != nil {
		e.store = cfg.store
		// The template's graph is a placeholder: runWith and Explore
		// replace it with the pinned epoch's snapshot on every call.
		graph = nil
		e.nodes = e.store.Len()
	}
	e.template = core.Cascade{
		Graph:     graph,
		Content:   netContent{net},
		Forward:   core.Flood{},
		Index:     cfg.index,
		Delay:     cfg.delay,
		OnMessage: cfg.onMessage,
	}
	if cfg.ledger != nil {
		e.template.Ledger = cfg.ledger
	}

	switch {
	case cfg.forward != nil:
		e.template.Forward = cfg.forward
	case cfg.policyName != "":
		family, k, err := parsePolicy(cfg.policyName)
		if err != nil {
			return nil, err
		}
		if family == "random" {
			e.newPolicy = func(seed uint64) core.ForwardPolicy {
				return core.RandomK{K: k, Intn: rng.New(seed).Intn}
			}
		} else if e.template.Forward, err = PolicyByName(cfg.policyName, cfg.env); err != nil {
			return nil, err
		}
	}

	// Take the node count from the graph when it knows one (a frozen
	// *topology.CSR and a *topology.OnlineView do): it pre-sizes pooled
	// scratches and their event queues (no growth pauses on first
	// queries) and bounds-checks query origins up front — flat-array
	// graphs would otherwise panic on an out-of-range origin.
	if g, ok := graph.(sizedGraph); ok {
		e.nodes = g.Len()
	}
	nodes := e.nodes
	e.scratch.New = func() any { return core.NewScratch(nodes) }
	return e, nil
}

// sizedGraph is a graph that knows its node count.
type sizedGraph interface{ Len() int }

// graphOf returns the core.Graph view of net. Networks assembled with
// Over keep their original graph half un-wrapped, so a caller passing a
// frozen *topology.CSR (or any concrete graph the core fast-paths)
// reaches the cascade without an interface indirection in between.
func graphOf(net Network) core.Graph {
	if comp, ok := net.(composite); ok {
		return comp.Graph
	}
	return netGraph{net}
}

// netGraph and netContent split a Network back into the core's two
// interfaces without re-wrapping user closures.
type netGraph struct{ n Network }

func (g netGraph) Out(id NodeID) []NodeID { return g.n.Out(id) }
func (g netGraph) Online(id NodeID) bool  { return g.n.Online(id) }

type netContent struct{ n Network }

func (c netContent) HasContent(id NodeID, key Key) bool { return c.n.HasContent(id, key) }

// querySeed derives the deterministic per-query seed: a pure function
// of the Engine seed and the query's identifying fields, so outcomes
// are independent of call order, goroutine interleaving and Saturator
// worker count. Engines with a shared (non-stochastic) policy skip the
// derivation — it would be dead weight on the zero-alloc hot path.
func (e *Engine) querySeed(q *Query) uint64 {
	if e.newPolicy == nil {
		return 0
	}
	return runner.DeriveSeed(e.seed, "query",
		strconv.FormatUint(q.ID, 10),
		strconv.FormatInt(int64(q.Origin), 10),
		strconv.FormatUint(uint64(q.Key), 10))
}

// coreQuery applies Engine defaults and validates.
func (e *Engine) coreQuery(q *Query) (core.Query, error) {
	cq := core.Query{
		ID:             core.QueryID(q.ID),
		Key:            q.Key,
		Origin:         q.Origin,
		TTL:            q.TTL,
		MaxResults:     q.MaxResults,
		ForwardWhenHit: q.ForwardWhenHit || e.forwardWhenHit,
	}
	if cq.TTL == 0 {
		cq.TTL = e.ttl
	}
	switch {
	case cq.MaxResults == 0:
		cq.MaxResults = e.maxResults
	case cq.MaxResults < 0:
		cq.MaxResults = 0 // explicitly unlimited
	}
	if err := cq.Validate(); err != nil {
		return core.Query{}, err
	}
	if e.nodes > 0 && int(cq.Origin) >= e.nodes {
		return core.Query{}, fmt.Errorf("search: query %d origin %d outside the %d-node network", q.ID, q.Origin, e.nodes)
	}
	return cq, nil
}

// runWith executes one search over an explicit Scratch — pooled for
// Do, pinned for a Saturator worker. The returned Result never aliases
// s (hits are copied out), so s is free for the next query the moment
// runWith returns.
func (e *Engine) runWith(ctx context.Context, q *Query, seed uint64, s *core.Scratch) (Result, error) {
	cq, err := e.coreQuery(q)
	if err != nil {
		return Result{}, err
	}

	c := e.template // value copy: per-call state never touches the shared template
	var epoch uint64
	if e.store != nil {
		// Pin one epoch for the whole cascade: the writer may publish any
		// number of fresh snapshots meanwhile, but this query's graph is
		// immutable until the deferred release.
		pin := e.store.Acquire()
		defer pin.Release()
		c.Graph = pin.Graph()
		epoch = pin.Epoch()
	}
	if e.newPolicy != nil {
		c.Forward = e.newPolicy(seed)
	}
	if q.OnMessage != nil {
		c.OnMessage = q.OnMessage
	}
	c.Halt = haltOn(ctx)

	var out *core.Outcome
	if e.deepening != nil {
		out = e.deepening.RunScratch(&c, &cq, s)
	} else {
		out = c.RunScratch(&cq, s)
	}
	res := Result{
		Messages:         out.Messages,
		ReplyMessages:    out.ReplyMessages,
		Visited:          out.Visited,
		FirstResultDelay: out.FirstResultDelay,
		Epoch:            epoch,
	}
	// The copy detaches the Result from s (out.Results aliases it).
	if len(out.Results) > 0 {
		res.Hits = append([]Hit(nil), out.Results...)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// haltOn returns the cascade's Halt hook for ctx, or nil when ctx can
// never be canceled (context.Background costs the cascade nothing).
func haltOn(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// Do executes one search to completion and returns its outcome. It
// returns ctx.Err() when the context is canceled mid-cascade (the
// cascade stops at the next hop) and a validation error for malformed
// queries; both leave the Engine reusable.
func (e *Engine) Do(ctx context.Context, q Query) (Result, error) {
	s := e.scratch.Get().(*core.Scratch)
	res, err := e.runWith(ctx, &q, e.querySeed(&q), s)
	e.scratch.Put(s)
	return res, err
}

// Batch is shorthand for Saturate + Run + Close: it runs qs on a
// Saturator of GOMAXPROCS workers started for this call alone and
// returns one Result per query, in input order, byte-identical to
// issuing the same queries sequentially through Do. Each worker
// allocates its own scratch, so a caller with a steady stream of
// batches should keep one Saturator instead. The first query error
// aborts the batch; a canceled context returns ctx.Err().
func (e *Engine) Batch(ctx context.Context, qs []Query) ([]Result, error) {
	sat, err := e.Saturate()
	if err != nil {
		return nil, err
	}
	defer sat.Close()
	return sat.Run(ctx, qs)
}

// Explore runs one metadata-only census round (Algo 2) and returns the
// findings. The outcome is caller-owned (deep-copied out of pooled
// memory); feed it to core.RecordFindings to fold into a ledger.
func (e *Engine) Explore(ctx context.Context, x Exploration) (*core.ExploreOutcome, error) {
	ttl := x.TTL
	if ttl == 0 {
		ttl = e.ttl
	}
	if ttl < 0 {
		return nil, fmt.Errorf("search: negative exploration TTL %d", x.TTL)
	}
	if x.Origin < 0 || (e.nodes > 0 && int(x.Origin) >= e.nodes) {
		return nil, fmt.Errorf("search: exploration %d origin %d outside the network", x.ID, x.Origin)
	}

	c := e.template
	if e.store != nil {
		pin := e.store.Acquire()
		defer pin.Release()
		c.Graph = pin.Graph()
	}
	if e.newPolicy != nil {
		c.Forward = e.newPolicy(runner.DeriveSeed(e.seed, "explore",
			strconv.FormatUint(x.ID, 10),
			strconv.FormatInt(int64(x.Origin), 10)))
	}
	if x.OnMessage != nil {
		c.OnMessage = x.OnMessage
	}
	c.Halt = haltOn(ctx)

	s := e.scratch.Get().(*core.Scratch)
	out := c.ExploreScratch(&core.Exploration{Keys: x.Keys, Origin: x.Origin, TTL: ttl}, s)
	cp := &core.ExploreOutcome{Messages: out.Messages, ReplyMessages: out.ReplyMessages}
	if len(out.Findings) > 0 {
		cp.Findings = append([]core.Finding(nil), out.Findings...)
		held := 0
		for _, f := range out.Findings {
			held += len(f.Held)
		}
		backing := make([]Key, 0, held)
		for i := range cp.Findings {
			n := len(backing)
			backing = append(backing, cp.Findings[i].Held...)
			cp.Findings[i].Held = backing[n:len(backing):len(backing)]
		}
	}
	e.scratch.Put(s)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cp, nil
}
