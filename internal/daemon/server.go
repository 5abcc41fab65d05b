// Package daemon is the long-running cluster service behind
// cmd/dsearchd: one process hosts a shard of live nodes, discovers the
// other shards by gossip, and serves an HTTP/JSON query+control plane
// whose wire contract lives in pkg/searchclient.
//
// Each process hosts a contiguous shard [BaseID, BaseID+Nodes) of the
// cluster's node ID space on one fabric: envelopes between its own
// nodes go over the in-process channel fabric, and only envelopes for
// nodes of another process travel over gob/TCP, through that process's
// one envelope listener. Gossip distributes each process's listener
// address so shards find each other without any central registry. A
// process whose shard is the whole cluster (Total == Nodes, the
// CI-scale configuration and the subject of the live-vs-simulated
// parity harness) never opens a connection.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/pkg/searchclient"
)

// State is the daemon lifecycle state machine. Transitions are
// monotone except Ready↔Paused: Starting → Ready ⇄ Paused → Draining →
// Stopped.
type State int32

// Lifecycle states.
const (
	StateStarting State = iota
	StateReady
	StatePaused
	StateDraining
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StatePaused:
		return "paused"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Server is one dsearchd process: a shard of live nodes, the gossip
// membership state, and the HTTP plane that fronts both.
type Server struct {
	cfg   Config
	world *World
	g     *Gossip

	reg       *metrics.Registry
	nodeStats *live.NodeStats

	nodes []*live.Node
	// chanT is the shard's fabric; it hands envelopes for other
	// processes' nodes to tcpT.
	chanT *live.ChanTransport
	tcpT  *live.TCPTransport
	// faultT wraps chanT: the deterministic fault-injection plane plus
	// crash/partition enforcement. Always present (zero rates make it a
	// pass-through).
	faultT *faults.Transport
	// crashed[i] marks local node i fault-injected down: its transport
	// traffic is blocked, deliveries from other processes are
	// discarded, and admission routes around it.
	crashed []atomic.Bool
	// stopListener closes the process's envelope listener.
	stopListener func()

	httpLn  net.Listener
	httpSrv *http.Server

	// state guards admission together with gateMu: a query handler
	// takes gateMu.RLock, checks state==Ready, joins inflight and
	// releases; Drain takes gateMu.Lock to flip the state so no new
	// query can slip in after the flip, then waits out inflight.
	state    atomic.Int32
	gateMu   sync.RWMutex
	inflight sync.WaitGroup

	// nextOrigin round-robins unpinned queries over the local shard.
	nextOrigin atomic.Uint64

	gossipStop chan struct{}
	gossipDone chan struct{}
	peerHC     *http.Client

	qTotal, qHit, qRejected, qDegraded *metrics.Counter
	gossipRounds                       *metrics.Counter

	startOnce sync.Once
	drainOnce sync.Once
	drainErr  error
}

// New builds a server: world derivation, node construction, and every
// listener bind (HTTP and the process's envelope listener) happen
// here, so Addr is valid — and the process's gossip entry complete —
// before Start launches anything.
func New(cfg Config) (*Server, error) {
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	class, err := classFor(cfg.Class)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:        cfg,
		world:      BuildWorld(cfg.Seed, cfg.Total, cfg.Degree, cfg.Keys, cfg.Replicas),
		reg:        metrics.NewRegistry(),
		nodeStats:  &live.NodeStats{},
		gossipStop: make(chan struct{}),
		gossipDone: make(chan struct{}),
		peerHC:     &http.Client{Timeout: 2 * time.Second},
	}
	s.qTotal = s.reg.Counter("daemon_queries_total")
	s.qHit = s.reg.Counter("daemon_queries_hit_total")
	s.qRejected = s.reg.Counter("daemon_queries_rejected_total")
	s.qDegraded = s.reg.Counter("daemon_queries_degraded_total")
	s.gossipRounds = s.reg.Counter("daemon_gossip_rounds_total")
	s.state.Store(int32(StateStarting))

	s.chanT = live.NewChanTransport()
	s.tcpT = live.NewTCPTransport()
	s.chanT.SetRemote(s.tcpT)
	// Every node sends through the fault plane, even with zero rates:
	// crash and partition control must work on a healthy configuration.
	s.faultT = faults.Wrap(s.chanT, faults.Config{
		Seed:     cfg.Faults.Seed,
		Drop:     cfg.Faults.Drop,
		Dup:      cfg.Faults.Dup,
		Reorder:  cfg.Faults.Reorder,
		DelayMin: time.Duration(cfg.Faults.DelayMinMillis) * time.Millisecond,
		DelayMax: time.Duration(cfg.Faults.DelayMaxMillis) * time.Millisecond,
	})
	transport := live.Transport(s.faultT)
	s.crashed = make([]atomic.Bool, cfg.Nodes)

	s.nodes = make([]*live.Node, cfg.Nodes)
	for i := range s.nodes {
		id := topology.NodeID(cfg.BaseID + i)
		s.nodes[i] = live.NewNode(live.Config{
			ID:        id,
			Neighbors: s.world.MaxDegree,
			TTL:       cfg.TTL,
			Transport: transport,
			Store:     s.world.StoreFor(id),
			Class:     class,
			Stats:     s.nodeStats,
		})
	}

	for _, n := range s.nodes {
		s.chanT.Attach(n)
	}

	// Bind everything before gossip can mention us.
	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		return nil, fmt.Errorf("daemon: bind http %s: %w", cfg.HTTPAddr, err)
	}
	s.httpLn = ln

	envAddr, stop, err := live.Listen(cfg.NodeHost+":0", s.deliver)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("daemon: bind envelope listener: %w", err)
	}
	s.stopListener = stop

	s.g = NewGossip(Member{
		Name:    cfg.Name,
		HTTP:    ln.Addr().String(),
		BaseID:  cfg.BaseID,
		Nodes:   cfg.Nodes,
		EnvAddr: envAddr,
	})
	s.syncTransport()

	s.httpSrv = &http.Server{Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// Addr returns the bound HTTP address (valid from New on, so callers
// using ":0" learn the ephemeral port).
func (s *Server) Addr() string { return s.httpLn.Addr().String() }

// EnvAddr returns the bound envelope listener address, the one gossip
// announces for every node of the shard.
func (s *Server) EnvAddr() string { return s.g.Self().EnvAddr }

// State returns the current lifecycle state.
func (s *Server) State() State { return State(s.state.Load()) }

// Stats exposes the daemon's counter registry (tests and cmd wiring).
func (s *Server) Stats() *metrics.Registry { return s.reg }

// Start launches the node actors, wires the local shard's overlay
// edges, starts HTTP serving and the gossip loop, and flips the state
// to Ready. It returns once the daemon is serving; errors out of the
// HTTP accept loop after that surface via Drain.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for _, n := range s.nodes {
			n.Start()
		}
		// Wiring goes through each node's actor loop, so it must follow
		// Start. Each node adds its own view of every incident world
		// edge; remote endpoints learn nothing here (the live protocol
		// carries no wiring messages — the shared World already told
		// every process the same graph).
		for _, n := range s.nodes {
			for _, nb := range s.world.Net.Out(n.ID()) {
				n.AddNeighbor(nb)
			}
		}
		go func() { _ = s.httpSrv.Serve(s.httpLn) }()
		go s.gossipLoop()
		s.state.Store(int32(StateReady))
	})
}

// Drain is the graceful shutdown: stop admitting queries, wait out the
// admitted ones (bounded by ctx and the configured drain timeout),
// stop HTTP and gossip, drain and close every node, then the
// transport. It is idempotent; cmd/dsearchd calls it on SIGTERM.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	// Flip under the write lock: after this, no admission check can
	// observe Ready, so inflight can only shrink.
	s.gateMu.Lock()
	s.state.Store(int32(StateDraining))
	s.gateMu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout())
	defer cancel()

	var err error
	if !waitCtx(ctx, &s.inflight) {
		err = errors.New("daemon: drain timed out with queries in flight")
	}

	close(s.gossipStop)
	<-s.gossipDone
	if shutErr := s.httpSrv.Shutdown(ctx); shutErr != nil && err == nil {
		err = fmt.Errorf("daemon: http shutdown: %w", shutErr)
	}
	// Nodes drain their inboxes (queued envelopes are processed, late
	// hits still count) before the listeners and transport go away.
	for _, n := range s.nodes {
		n.Close()
	}
	s.stopListener()
	s.tcpT.Close()
	s.state.Store(int32(StateStopped))
	return err
}

// deliver hands a frame from the envelope listener to the shard's
// fabric, so a remote ack or hit gets the same idle-receiver fast path
// a local one gets. A frame for a node outside the shard counts as an
// inbox drop and never reaches the fabric, whose miss path would send
// it back out. The crash gate holds on the receive side too: remote
// processes do not share this process's fault plane, so their
// envelopes to a crashed local node die here.
func (s *Server) deliver(env live.Envelope) {
	switch {
	case s.localNode(int(env.To)) == nil:
		s.nodeStats.InboxDropped.Inc()
	case !s.nodeCrashed(int(env.To)):
		if s.chanT.Send(env.To, env) != nil {
			s.nodeStats.InboxDropped.Inc()
		}
	}
}

// waitCtx waits on wg until done or ctx expires; true means done.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// admit joins the inflight group when the daemon is Ready. The
// returned release must be called exactly once.
func (s *Server) admit() (release func(), ok bool) {
	s.gateMu.RLock()
	defer s.gateMu.RUnlock()
	if State(s.state.Load()) != StateReady {
		return nil, false
	}
	s.inflight.Add(1)
	return func() { s.inflight.Done() }, true
}

// localNode maps a cluster node ID to the local shard, nil if remote.
func (s *Server) localNode(id int) *live.Node {
	i := id - s.cfg.BaseID
	if i < 0 || i >= len(s.nodes) {
		return nil
	}
	return s.nodes[i]
}

// nodeCrashed reports whether local node id is fault-injected down.
func (s *Server) nodeCrashed(id int) bool {
	i := id - s.cfg.BaseID
	return i >= 0 && i < len(s.crashed) && s.crashed[i].Load()
}

// anyCrashed reports whether any local node is currently down.
func (s *Server) anyCrashed() bool {
	for i := range s.crashed {
		if s.crashed[i].Load() {
			return true
		}
	}
	return false
}

// pickLive round-robins over the local shard, skipping crashed nodes;
// nil when every local node is down.
func (s *Server) pickLive() *live.Node {
	for range s.nodes {
		n := s.nodes[s.nextOrigin.Add(1)%uint64(len(s.nodes))]
		if !s.nodeCrashed(int(n.ID())) {
			return n
		}
	}
	return nil
}

// Crash fault-injects a locally hosted node down: its transport
// traffic is blocked both ways, deliveries from other processes are
// discarded, and query admission routes around it until Restart. The
// node's actor keeps running — a crash here is a network death, which
// is all the protocol can observe anyway.
//
// Crash, Restart, Partition and Heal make *Server a faults.Target, so
// a faults.Schedule can play directly against an in-process cluster.
func (s *Server) Crash(id int) error {
	i := id - s.cfg.BaseID
	if i < 0 || i >= len(s.nodes) {
		return fmt.Errorf("daemon: node %d not hosted here (shard [%d,%d))",
			id, s.cfg.BaseID, s.cfg.BaseID+s.cfg.Nodes)
	}
	s.crashed[i].Store(true)
	s.faultT.Crash(topology.NodeID(id))
	return nil
}

// Restart lifts a Crash.
func (s *Server) Restart(id int) error {
	i := id - s.cfg.BaseID
	if i < 0 || i >= len(s.nodes) {
		return fmt.Errorf("daemon: node %d not hosted here (shard [%d,%d))",
			id, s.cfg.BaseID, s.cfg.BaseID+s.cfg.Nodes)
	}
	s.crashed[i].Store(false)
	s.faultT.Restart(topology.NodeID(id))
	return nil
}

// Partition splits this process's transport into isolated groups
// (node IDs); traffic across groups is blocked until Heal. Across
// processes the cut applies to this process's outbound plane only.
func (s *Server) Partition(groups [][]int) error {
	conv := make([][]topology.NodeID, len(groups))
	for i, g := range groups {
		conv[i] = make([]topology.NodeID, len(g))
		for j, id := range g {
			conv[i][j] = topology.NodeID(id)
		}
	}
	s.faultT.Partition(conv)
	return nil
}

// Heal lifts a Partition.
func (s *Server) Heal() error {
	s.faultT.Heal()
	return nil
}

// FaultStats exposes the fault plane's counters.
func (s *Server) FaultStats() *faults.Stats { return s.faultT.Stats() }

// mux builds the HTTP plane. Every endpoint is wrapped in a latency
// histogram (surfaced in /v1/stats as <name>_{count,p50_us,p95_us,
// p99_us}); untouched endpoints stay out of the snapshot.
func (s *Server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/query", s.timed("http_query", s.handleQuery))
	m.HandleFunc("POST /v1/query/batch", s.timed("http_query_batch", s.handleQueryBatch))
	m.HandleFunc("GET /v1/cluster", s.timed("http_cluster", s.handleCluster))
	m.HandleFunc("GET /v1/stats", s.timed("http_stats", s.handleStats))
	m.HandleFunc("POST /v1/control/pause", s.timed("http_control_pause", s.handlePause))
	m.HandleFunc("POST /v1/control/resume", s.timed("http_control_resume", s.handleResume))
	m.HandleFunc("POST /v1/control/reconfig", s.timed("http_control_reconfig", s.handleReconfig))
	m.HandleFunc("POST /v1/control/crash", s.timed("http_control_crash", s.handleCrash))
	m.HandleFunc("POST /v1/control/restart", s.timed("http_control_restart", s.handleRestart))
	m.HandleFunc("POST /v1/gossip", s.timed("http_gossip", s.handleGossip))
	m.HandleFunc("GET /v1/healthz", s.timed("http_healthz", s.handleHealthz))
	m.HandleFunc("GET /v1/readyz", s.timed("http_readyz", s.handleReadyz))
	return m
}

// timed wraps a handler with a per-endpoint latency histogram. The
// histogram pointer is resolved once at mux-build time, so the hot
// path costs one clock read and one atomic add.
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Latency(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start))
	}
}

// noRelease is the admission stand-in for queries already covered by a
// batch-level gate entry.
func noRelease() (func(), bool) { return func() {}, true }

// runQuery executes one query end to end — validation, origin
// selection with crashed-node reroute, admission and the live search —
// and returns either the response or the HTTP status and message the
// caller should answer with (code 0 means success). Both the single
// and the batch endpoint funnel through here, so the two planes cannot
// drift semantically.
func (s *Server) runQuery(ctx context.Context, req *searchclient.QueryRequest,
	admit func() (func(), bool), settle bool) (searchclient.QueryResponse, int, string) {
	var zero searchclient.QueryResponse
	if req.Key >= uint64(s.cfg.Keys) {
		return zero, http.StatusBadRequest,
			fmt.Sprintf("key %d outside catalog [0,%d)", req.Key, s.cfg.Keys)
	}
	switch {
	case req.TTL < 0 || req.TTL > 255:
		return zero, http.StatusBadRequest, fmt.Sprintf("ttl %d outside [0,255]", req.TTL)
	case req.MaxHits < 0:
		return zero, http.StatusBadRequest, fmt.Sprintf("max_hits %d is negative", req.MaxHits)
	case req.TimeoutMillis < 0:
		return zero, http.StatusBadRequest, fmt.Sprintf("timeout_ms %d is negative", req.TimeoutMillis)
	}

	// Origin selection routes around crashed nodes: a pinned-but-down
	// origin degrades to a live substitute (the response says so), an
	// unpinned query round-robins over live nodes only, and a fully
	// crashed shard is a 503 the client may retry elsewhere.
	var reasons []string
	var node *live.Node
	if req.Origin != nil {
		if node = s.localNode(*req.Origin); node == nil {
			return zero, http.StatusBadRequest,
				fmt.Sprintf("origin %d not hosted here (shard [%d,%d))",
					*req.Origin, s.cfg.BaseID, s.cfg.BaseID+s.cfg.Nodes)
		}
		if s.nodeCrashed(*req.Origin) {
			if node = s.pickLive(); node == nil {
				s.qRejected.Inc()
				return zero, http.StatusServiceUnavailable, "every local node is crashed"
			}
			reasons = append(reasons, searchclient.ReasonOriginCrashed)
		}
	} else {
		if node = s.pickLive(); node == nil {
			s.qRejected.Inc()
			return zero, http.StatusServiceUnavailable, "every local node is crashed"
		}
	}

	timeout := s.cfg.QueryWindow()
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}

	release, ok := admit()
	if !ok {
		s.qRejected.Inc()
		return zero, http.StatusServiceUnavailable,
			"not admitting queries (state " + s.State().String() + ")"
	}
	defer release()

	start := time.Now()
	hits, info := node.QueryInfo(live.QueryOpts{
		Key:     core.Key(req.Key),
		TTL:     req.TTL,
		Timeout: timeout,
		MaxHits: req.MaxHits,
		Settle:  settle,
		Cancel:  ctx.Done(),
	})
	s.qTotal.Inc()
	if len(hits) > 0 {
		s.qHit.Inc()
	}

	// Degradation verdict: anything that may have cost the response
	// completeness is declared, so a caller can always distinguish "no
	// replica holds this key" from "the cluster could not look
	// everywhere". A flood that terminated with nothing lost is exact
	// and adds no reason; one that ended on the window (an ack or a
	// message it waited for never came) or on the request's
	// cancellation instead is "deadline"; one that terminated but could
	// not hand some copy to the transport is "overload".
	if info.Expired || info.Stopped {
		reasons = append(reasons, searchclient.ReasonDeadline)
	}
	if info.Lost {
		reasons = append(reasons, searchclient.ReasonOverload)
	}
	if info.Fanout == 0 && len(hits) == 0 {
		reasons = append(reasons, searchclient.ReasonNoFanout)
	}
	if len(s.g.Suspects()) > 0 {
		reasons = append(reasons, searchclient.ReasonSuspects)
	}
	if s.anyCrashed() {
		reasons = append(reasons, searchclient.ReasonCrashedNodes)
	}
	if len(reasons) > 0 {
		s.qDegraded.Inc()
	}

	resp := searchclient.QueryResponse{
		Origin:          int(node.ID()),
		Hits:            make([]searchclient.Hit, len(hits)),
		ElapsedMillis:   float64(time.Since(start).Microseconds()) / 1000,
		Degraded:        len(reasons) > 0,
		DegradedReasons: reasons,
	}
	for i, h := range hits {
		resp.Hits[i] = searchclient.Hit{
			Holder: int(h.Holder), Hops: h.Hops, Class: h.Class.String(),
		}
	}
	return resp, 0, ""
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req searchclient.QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad query body: "+err.Error())
		return
	}
	resp, code, msg := s.runQuery(r.Context(), &req, s.admit, false)
	if code != 0 {
		if code == http.StatusServiceUnavailable {
			writeUnavailable(w, msg)
		} else {
			writeErr(w, code, msg)
		}
		return
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleQueryBatch admits a slab of queries through the lifecycle gate
// as one unit and drains it on up to BatchWorkers goroutines started
// for this request, each running the exact single-query path (runQuery).
// Admission is batch-atomic: one gate check and one inflight entry
// cover the slab, so Drain waits for a started batch to finish and a
// paused daemon refuses the whole slab with 503. Malformed bodies,
// empty slabs and slabs over max_batch are whole-batch 400s; per-item
// problems (bad key, out-of-range field, unhosted origin, all-crashed
// shard) mark only that item's result.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req searchclient.BatchQueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds max_batch %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}

	release, ok := s.admit()
	if !ok {
		s.qRejected.Add(uint64(len(req.Queries)))
		writeUnavailable(w, "not admitting queries (state "+s.State().String()+")")
		return
	}
	defer release()

	start := time.Now()
	results := make([]searchclient.BatchItem, len(req.Queries))
	workers := s.cfg.BatchWorkers
	if workers > len(req.Queries) {
		workers = len(req.Queries)
	}
	// The workers drain a shared index; their number is how many floods
	// of this slab are in the fabric at once — a worker lets its flood
	// end before it takes the next query even when MaxHits answered it
	// early (settle): the slab is only as done as its last item anyway,
	// and the unfinished tails of a thousand probes would otherwise pile
	// into the inboxes.
	var next atomic.Uint64
	var wg sync.WaitGroup
	ctx := r.Context()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Queries) {
					return
				}
				resp, code, msg := s.runQuery(ctx, &req.Queries[i], noRelease, true)
				if code != 0 {
					results[i].Status, results[i].Error = code, msg
					continue
				}
				results[i].QueryResponse = resp
			}
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, &searchclient.BatchQueryResponse{
		Results:       results,
		ElapsedMillis: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleCrash and handleRestart are the fault-injection control plane:
// POST {"node": N} marks a locally hosted node network-dead (crash) or
// lifts it (restart). Remote node IDs are the caller's routing error.
func (s *Server) handleCrash(w http.ResponseWriter, r *http.Request) {
	s.handleNodeFault(w, r, s.Crash, "crashed")
}

func (s *Server) handleRestart(w http.ResponseWriter, r *http.Request) {
	s.handleNodeFault(w, r, s.Restart, "restarted")
}

// nodeFaultRequest is the body of POST /v1/control/{crash,restart}.
type nodeFaultRequest struct {
	Node int `json:"node"`
}

func (s *Server) handleNodeFault(w http.ResponseWriter, r *http.Request,
	apply func(int) error, verb string) {
	var req nodeFaultRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if err := apply(req.Node); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": req.Node, "state": verb})
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	info := searchclient.ClusterInfo{
		Self:     s.cfg.Name,
		Epoch:    s.g.Version(),
		State:    s.State().String(),
		Suspects: s.g.Suspects(),
	}
	statuses := s.g.Statuses()
	for _, m := range s.g.Members() {
		info.Members = append(info.Members, searchclient.MemberInfo{
			Name: m.Name, HTTP: m.HTTP, BaseID: m.BaseID, Nodes: m.Nodes,
			Status: string(statuses[m.Name]),
		})
	}
	for _, n := range s.nodes {
		info.LocalNodes = append(info.LocalNodes, searchclient.NodeInfo{
			ID: int(n.ID()), Degree: len(n.Neighbors()),
			Crashed: s.nodeCrashed(int(n.ID())),
		})
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	snap["node_queries_seen"] = s.nodeStats.QueriesSeen.Load()
	snap["node_queries_forwarded"] = s.nodeStats.QueriesForwarded.Load()
	snap["node_hits_served"] = s.nodeStats.HitsServed.Load()
	snap["node_hits_received"] = s.nodeStats.HitsReceived.Load()
	snap["node_inbox_dropped"] = s.nodeStats.InboxDropped.Load()
	snap["node_send_failed"] = s.nodeStats.SendFailed.Load()
	snap["node_acks_sent"] = s.nodeStats.AcksSent.Load()
	snap["node_queries_complete"] = s.nodeStats.QueriesComplete.Load()
	snap["node_queries_window_fallback"] = s.nodeStats.QueriesWindowFallback.Load()
	for k, v := range s.faultT.Stats().Snapshot() {
		snap[k] = v
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	if !s.state.CompareAndSwap(int32(StateReady), int32(StatePaused)) {
		writeErr(w, http.StatusConflict, "not ready (state "+s.State().String()+")")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": s.State().String()})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if !s.state.CompareAndSwap(int32(StatePaused), int32(StateReady)) {
		writeErr(w, http.StatusConflict, "not paused (state "+s.State().String()+")")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": s.State().String()})
}

func (s *Server) handleReconfig(w http.ResponseWriter, r *http.Request) {
	for _, n := range s.nodes {
		n.Reconfigure()
	}
	writeJSON(w, http.StatusOK, map[string]int{"reconfigured": len(s.nodes)})
}

// handleGossip is the receiving half of push-pull anti-entropy: merge
// the caller's view, answer with ours.
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	var remote View
	if err := decodeBody(r, &remote); err != nil {
		writeErr(w, http.StatusBadRequest, "bad view: "+err.Error())
		return
	}
	local := s.g.Exchange(remote)
	s.syncTransport()
	writeJSON(w, http.StatusOK, local)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"state": s.State().String()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.State()
	code := http.StatusOK
	if st != StateReady {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"state": st.String()})
}

// gossipLoop beats and exchanges views with the seed list plus a
// random fanout of known peers every interval, then refreshes the
// transport's address book from whatever it learned.
func (s *Server) gossipLoop() {
	defer close(s.gossipDone)
	// Per-process stream: same cluster seed, different member names →
	// different peer-sampling sequences.
	h := fnv.New64a()
	h.Write([]byte(s.cfg.Name))
	stream := rng.New(s.cfg.Seed ^ h.Sum64())

	tick := time.NewTicker(s.cfg.GossipInterval())
	defer tick.Stop()
	for {
		s.gossipRound(stream)
		select {
		case <-s.gossipStop:
			return
		case <-tick.C:
		}
	}
}

func (s *Server) gossipRound(stream *rng.Stream) {
	s.g.Beat()
	self := s.g.Self()

	targets := make(map[string]struct{})
	for _, seed := range s.cfg.Join {
		targets[seed] = struct{}{}
	}
	for _, m := range s.g.Targets(gossipFanout, stream.Intn) {
		targets[m.HTTP] = struct{}{}
	}
	delete(targets, self.HTTP)

	view := s.g.Snapshot()
	body, err := json.Marshal(view)
	if err != nil {
		return
	}
	for addr := range targets {
		resp, err := s.peerHC.Post(peerURL(addr)+"/v1/gossip",
			"application/json", bytes.NewReader(body))
		if err != nil {
			continue // unreachable peers are retried next round
		}
		var remote View
		err = json.NewDecoder(resp.Body).Decode(&remote)
		resp.Body.Close()
		if err == nil {
			s.g.Absorb(remote)
		}
	}
	s.gossipRounds.Inc()
	// One detector round per gossip round: members whose heartbeats
	// stalled for the configured round counts get suspected, then
	// evicted (with a rejoin tombstone).
	s.g.Tick()
	s.syncTransport()
}

// syncTransport points every node ID of each peer member's shard at
// that member's envelope address (SetAddr is idempotent for unchanged
// entries). The process's own IDs get no address: its fabric delivers
// them without touching a socket.
func (s *Server) syncTransport() {
	for _, m := range s.g.Members() {
		if m.Name == s.cfg.Name || m.EnvAddr == "" {
			continue
		}
		for id := m.BaseID; id < m.BaseID+m.Nodes; id++ {
			s.tcpT.SetAddr(topology.NodeID(id), m.EnvAddr)
		}
	}
}

func peerURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// classFor maps a config string to a bandwidth class.
func classFor(name string) (netsim.BandwidthClass, error) {
	switch strings.ToLower(name) {
	case "56k", "modem":
		return netsim.Modem56K, nil
	case "cable":
		return netsim.Cable, nil
	case "lan":
		return netsim.LAN, nil
	default:
		return 0, fmt.Errorf("daemon: unknown bandwidth class %q", name)
	}
}

// bufPool recycles body buffers across requests: request bodies are
// slurped into a pooled buffer and decoded from it, responses are
// encoded into a pooled buffer and written in one shot with
// Content-Length set (no chunked framing).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody slurps a request body through the pool and decodes it as
// strictly as a config file (decodeStrict).
func decodeBody(r *http.Request, v any) error {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, 64<<20)); err != nil {
		return err
	}
	return decodeStrict(buf, v)
}

// decodeStrict decodes exactly one JSON object from buf into v: an
// unknown field is an error that names it, and so is anything but
// whitespace after the object, so a misspelt or retired field is
// refused instead of silently ignored.
func decodeStrict(buf *bytes.Buffer, v any) error {
	data := buf.Bytes() // reading buf leaves its bytes in place
	dec := json.NewDecoder(buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// writeJSON answers with v as compact JSON: pooled encode buffer, one
// Write.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeUnavailable is a 503 with a Retry-After hint, so well-behaved
// clients (pkg/searchclient included) back off before retrying.
func writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, msg)
}
