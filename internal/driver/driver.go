// Package driver implements the session layer shared by every
// simulated application of the paper's framework.
//
// The paper's central claim is that one search framework instantiates
// three distributed-repository applications — Gnutella-style file
// sharing, cooperative web-cache meshes, and PeerOLAP. What those
// applications share is not the search (internal/core owns that) but
// the *session machinery around it*: a discrete-event timeline with a
// neighbor graph, per-node RNG streams, an initial placement, per-node
// query arrival processes, optional on/off churn with resume-on-login
// bookkeeping, per-query dispatch through a pooled search.Engine, and
// trace emission. Before this package each application re-implemented
// that machinery by hand; now each supplies a Spec (topology shape,
// workload processes, policy, delay model) plus domain hooks (content
// model, what happens on a query, how the neighborhood reacts to
// churn) and the Session owns the timeline.
//
// # Determinism
//
// A Session is a pure function of its Spec and the root rng.Stream
// handed to New. The stream-split layout is fixed — application
// world-generation splits first (taken by the caller before New), then
// churn streams (only when churn is configured), query streams, the
// topology stream, the delay stream — and every timeline process draws
// only from its own per-node stream, so runs are bit-for-bit
// reproducible across machines and unchanged by refactors that do not
// move draws. The sim engine is single-threaded with FIFO tie-breaks;
// Start schedules processes in a documented order (placement, Before,
// per-node arrivals+churn in ID order, After) so equal-time events
// fire identically on every run.
package driver

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/search"
)

// Placement wires the initial topology before any timeline process
// runs. The Session is fully constructed (network, streams) when a
// Placement is invoked; draw randomness from s.TopoStream only.
type Placement func(s *Session)

// RandomWire returns the Placement used by the static-membership
// applications (web proxies, OLAP workstations): every node attaches
// to up to degree random peers, in ID order, drawing from the
// session's topology stream.
func RandomWire(degree int) Placement {
	return func(s *Session) {
		topology.RandomWire(s.net, degree, s.topoStream.Intn)
	}
}

// Spec parameterizes one session. Required fields: Nodes, Duration,
// and Content; everything else defaults to "absent" (no placement, no
// arrivals, no churn, no delays, no tracing).
type Spec struct {
	// Nodes is the population size.
	Nodes int
	// Relation, OutCap and InCap shape the neighbor graph (see
	// topology.NewNetwork for how the regime constrains the caps).
	Relation      topology.Relation
	OutCap, InCap int
	// Duration is the simulated horizon in seconds.
	Duration float64

	// Place wires the initial topology; nil leaves nodes isolated
	// (Gnutella-style: nodes attach on login via OnLogin).
	Place Placement
	// Arrivals drives each node's query process; nil schedules none.
	Arrivals Arrivals
	// Churn, when non-nil, drives per-node on/off sessions from
	// dedicated churn streams; nil means every node is permanently
	// online (and no churn streams are split from the root).
	Churn *workload.ChurnConfig

	// Content is the local-content oracle behind the search engine.
	Content core.Content
	// Classes maps nodes to bandwidth classes for the netsim delay
	// model; nil disables per-hop delays.
	Classes func(id topology.NodeID) netsim.BandwidthClass
	// Policy selects the forward policy by pkg/search registry name;
	// empty leaves the engine default (flood) or whatever the Search
	// hook installs.
	Policy string
	// TTL, when positive, sets the engine's default hop bound.
	TTL int
	// Seed is the base seed for the engine's stochastic policy streams
	// (search.WithSeed); 0 leaves the engine default.
	Seed uint64
	// Search, when non-nil, contributes application engine options
	// (observers, digests, deepening, a TTL the app computed itself).
	// It runs during New, after streams and network exist but before
	// the engine does; the passed Session supports the stream and
	// topology accessors but must not be asked to search yet.
	Search func(s *Session) []search.Option

	// OnQuery handles one arrival at node id: sample a key, dispatch
	// through Session.Do, update domain state. Required when Arrivals
	// is set.
	OnQuery func(id topology.NodeID, now float64)
	// OnLogin reacts to a node coming online (wire it into the
	// network, ...). It runs after the online mask flips and before
	// the node's arrival process resumes.
	OnLogin func(id topology.NodeID)
	// OnLogoff reacts to a node going offline (isolate it, trigger
	// neighbor updates, ...). It runs after the online mask flips.
	OnLogoff func(id topology.NodeID, now float64)
	// Before and After schedule domain processes around the per-node
	// loop of Start: Before runs after placement and before any
	// arrival or churn process is armed (periodic tickers, one-shot
	// events like preference drift); After runs once every per-node
	// process exists (reconfiguration tickers of static-membership
	// apps).
	Before, After func()

	// Trace, when non-nil, receives login/logoff events from the
	// session and is available to the application via Emit.
	Trace trace.Sink
}

// Validate reports Spec errors. New calls it; exported so experiment
// constructors can fail fast.
func (sp *Spec) Validate() error {
	switch {
	case sp.Nodes <= 0:
		return fmt.Errorf("driver: non-positive node count %d", sp.Nodes)
	case sp.Duration <= 0:
		return fmt.Errorf("driver: non-positive duration %v", sp.Duration)
	case sp.Content == nil:
		return fmt.Errorf("driver: Spec without a Content oracle")
	case sp.Arrivals != nil && sp.OnQuery == nil:
		return fmt.Errorf("driver: Arrivals configured without an OnQuery hook")
	}
	if sp.Arrivals != nil {
		if err := sp.Arrivals.Validate(); err != nil {
			return err
		}
	}
	if sp.Churn != nil {
		if err := sp.Churn.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Session owns one simulation timeline: the engine, the neighbor
// graph with its online overlay, the per-node streams, the pooled
// search engine, and the churn bookkeeping. Applications hold one
// Session and keep only domain state of their own.
type Session struct {
	spec   Spec
	engine *sim.Engine
	net    *topology.Network
	view   *topology.OnlineView

	churnStreams []*rng.Stream
	queryStreams []*rng.Stream
	topoStream   *rng.Stream
	delayStream  *rng.Stream

	searcher *search.Engine
	resume   []func()
	queryID  uint64

	logins, logoffs uint64
}

// New builds a Session from the spec, splitting the session streams
// off root in the fixed layout documented on the package. The caller
// performs its world-generation splits (catalogs, user libraries,
// bandwidth classes) before calling New and may keep splitting root
// afterwards for domain streams of its own.
func New(spec Spec, root *rng.Stream) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		spec:   spec,
		engine: sim.New(),
		net:    topology.NewNetwork(spec.Relation, spec.Nodes, spec.OutCap, spec.InCap),
		resume: make([]func(), spec.Nodes),
	}
	if spec.Churn != nil {
		s.churnStreams = root.SplitN(spec.Nodes)
	}
	s.queryStreams = root.SplitN(spec.Nodes)
	s.topoStream = root.Split()
	s.delayStream = root.Split()

	s.view = &topology.OnlineView{Net: s.net}
	if spec.Churn != nil {
		s.view.Mask = make([]bool, spec.Nodes)
	}

	opts := []search.Option{search.WithScratchHint(spec.Nodes)}
	if spec.Classes != nil {
		opts = append(opts, search.WithDelay(s.SampleDelay))
	}
	if spec.Policy != "" {
		opts = append(opts, search.WithPolicy(spec.Policy))
	}
	if spec.TTL > 0 {
		opts = append(opts, search.WithTTL(spec.TTL))
	}
	if spec.Seed != 0 {
		opts = append(opts, search.WithSeed(spec.Seed))
	}
	if spec.Search != nil {
		opts = append(opts, spec.Search(s)...)
	}
	eng, err := search.New(search.Over(s.view, spec.Content), opts...)
	if err != nil {
		return nil, err
	}
	s.searcher = eng
	return s, nil
}

// Engine exposes the underlying simulator (tests drive partial runs).
func (s *Session) Engine() *sim.Engine { return s.engine }

// Network exposes the neighbor graph.
func (s *Session) Network() *topology.Network { return s.net }

// Now returns the current simulated time in seconds.
func (s *Session) Now() float64 { return s.engine.Now() }

// TopoStream returns the stream feeding every topology decision
// (placement, login attachment, random forward policies).
func (s *Session) TopoStream() *rng.Stream { return s.topoStream }

// QueryStream returns node id's workload stream. The arrival process
// draws inter-arrival times from it; the application samples query
// content from the same stream, which keeps each node's workload one
// self-contained deterministic sequence.
func (s *Session) QueryStream(id topology.NodeID) *rng.Stream {
	return s.queryStreams[id]
}

// DelayStream returns the stream behind SampleDelay, for applications
// that model extra latencies (origin fetches) on the same source.
func (s *Session) DelayStream() *rng.Stream { return s.delayStream }

// SampleDelay draws a one-way hop delay between two nodes from the
// session delay stream using the spec's bandwidth classes. It is the
// engine's DelayFunc and is also called directly by applications that
// charge extra round trips (probe replies, fetches).
func (s *Session) SampleDelay(from, to topology.NodeID) float64 {
	return netsim.OneWayDelay(s.delayStream, s.spec.Classes(from), s.spec.Classes(to))
}

// IsOnline reports whether a node currently participates; without
// churn every node always does.
func (s *Session) IsOnline(id topology.NodeID) bool { return s.view.Online(id) }

// Logins and Logoffs count churn transitions so far.
func (s *Session) Logins() uint64  { return s.logins }
func (s *Session) Logoffs() uint64 { return s.logoffs }

// NextQueryID returns the next session-unique query ID (1, 2, ...).
func (s *Session) NextQueryID() uint64 {
	s.queryID++
	return s.queryID
}

// Do dispatches one search through the pooled engine. Queries built by
// the session's own applications are well-formed by construction, so
// any error is a programming bug and panics rather than silently
// skewing metrics.
func (s *Session) Do(q search.Query) search.Result {
	out, err := s.searcher.Do(context.Background(), q)
	if err != nil {
		panic(err)
	}
	return out
}

// Explore dispatches one metadata-only census round (Algo 2); errors
// panic for the same reason as in Do.
func (s *Session) Explore(x search.Exploration) *core.ExploreOutcome {
	out, err := s.searcher.Explore(context.Background(), x)
	if err != nil {
		panic(err)
	}
	return out
}

// Emit records a trace event at the current simulated time when the
// session has a sink; without one it costs a nil check.
func (s *Session) Emit(e trace.Event) {
	if s.spec.Trace != nil {
		e.T = s.engine.Now()
		s.spec.Trace.Record(e)
	}
}

// Start schedules every timeline process: placement, the Before hook,
// per-node arrival and churn processes in node-ID order, then the
// After hook. Nodes without churn start with their arrival processes
// armed; with churn, arrival processes arm on (stationary-initialized)
// login. Run calls Start; it is exported for tests that drive the
// engine manually.
func (s *Session) Start() {
	if s.spec.Place != nil {
		s.spec.Place(s)
	}
	if s.spec.Before != nil {
		s.spec.Before()
	}
	for i := 0; i < s.spec.Nodes; i++ {
		id := topology.NodeID(i)
		if s.spec.Arrivals != nil {
			s.resume[i] = s.spec.Arrivals.Schedule(s.engine, s.queryStreams[i],
				func() bool { return s.IsOnline(id) },
				func(now float64) { s.spec.OnQuery(id, now) },
			)
		} else {
			s.resume[i] = func() {}
		}
		if s.spec.Churn != nil {
			if err := workload.ScheduleChurn(s.engine, s.churnStreams[i], *s.spec.Churn,
				func(on bool, now float64) { s.setOnline(id, on, now) }); err != nil {
				// Validate ran in New; reaching this means the spec was
				// mutated after construction.
				panic(err)
			}
		} else {
			s.resume[i]()
		}
	}
	if s.spec.After != nil {
		s.spec.After()
	}
}

// setOnline is the single churn transition path: flip the mask, count,
// run the domain hook, re-arm arrivals on login, trace.
func (s *Session) setOnline(id topology.NodeID, on bool, now float64) {
	if s.view.Mask[id] == on {
		return
	}
	s.view.Mask[id] = on
	if on {
		s.logins++
		if s.spec.OnLogin != nil {
			s.spec.OnLogin(id)
		}
		s.resume[id]()
		s.Emit(trace.Event{Kind: trace.KindLogin, Node: id})
		return
	}
	s.logoffs++
	if s.spec.OnLogoff != nil {
		s.spec.OnLogoff(id, now)
	}
	s.Emit(trace.Event{Kind: trace.KindLogoff, Node: id})
}

// Run executes the full configured duration: set the horizon, start
// every process, drain the timeline.
func (s *Session) Run() {
	s.engine.SetHorizon(s.spec.Duration)
	s.Start()
	s.engine.RunUntil(s.spec.Duration)
}
