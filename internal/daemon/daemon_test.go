package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/pkg/search"
	"repro/pkg/searchclient"
)

// fanClient is a searchclient with enough idle connections for the
// harness's concurrency.
func fanClient(addr string, workers int) *searchclient.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = workers
	return searchclient.New(addr, searchclient.WithHTTPClient(
		&http.Client{Timeout: 30 * time.Second, Transport: tr}))
}

// simHitRate replays a World's query plan through the internal/driver
// simulated twin over the identical graph and content, returning the
// per-query hit outcomes.
func simHitRate(t *testing.T, w *World, plan []QuerySpec, ttl int) []bool {
	t.Helper()
	sess, err := driver.New(driver.Spec{
		Nodes:    w.Nodes,
		Relation: topology.Symmetric,
		Duration: 3600,
		Content:  w,
		TTL:      ttl,
		Place:    func(s *driver.Session) { w.WireInto(s.Network()) },
	}, rng.New(7))
	if err != nil {
		t.Fatalf("driver twin: %v", err)
	}
	sess.Start()
	out := make([]bool, len(plan))
	for i, q := range plan {
		res := sess.Do(search.Query{
			ID: uint64(i + 1), Key: q.Key, Origin: q.Origin,
		})
		out[i] = res.Found()
	}
	return out
}

// parityQueries returns the harness size: 10k at full scale, trimmed
// under -short (the race-gated CI smoke), overridable via env for
// larger sweeps.
func parityQueries(t *testing.T) int {
	if v := os.Getenv("DAEMON_PARITY_QUERIES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad DAEMON_PARITY_QUERIES %q", v)
		}
		return n
	}
	if testing.Short() {
		return 1500
	}
	return 10_000
}

// TestClusterParityWithDriver is the integration harness of the
// daemon: boot a 50-node cluster in-process, push the deterministic
// query plan through the REST client — one client at a time, then 128
// at once — and require, query by query, the answer of the BFS
// holder-distance oracle and of the simulated driver run on the same
// world. Flood over a shared deterministic graph is reachability and
// the live flood terminates by protocol, so with no faults armed the
// answers are equal, not close: no response may be degraded and no
// query may have ended on its window.
func TestClusterParityWithDriver(t *testing.T) {
	const (
		nodes, degree, ttl = 50, 3, 3
		keys, replicas     = 200, 3
		seed               = 42
	)
	queries := parityQueries(t)

	srv, err := New(Config{
		Nodes: nodes, Degree: degree, TTL: ttl,
		Keys: keys, Replicas: replicas, Seed: seed,
		QueryWindowMillis: 2000, // nothing may wait this out
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	w := BuildWorld(seed, nodes, degree, keys, replicas)
	plan := w.QueryPlan(queries)
	simHit := simHitRate(t, BuildWorld(seed, nodes, degree, keys, replicas), plan, ttl)
	ctx := context.Background()
	liveHits := 0

	for _, workers := range []int{1, 128} {
		client := fanClient(srv.Addr(), workers)
		liveHit := make([]bool, len(plan))
		var failures, degraded atomic.Int64
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, q := range plan {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, q QuerySpec) {
				defer wg.Done()
				defer func() { <-sem }()
				origin := int(q.Origin)
				resp, err := client.Query(ctx, searchclient.QueryRequest{
					Key:     uint64(q.Key),
					Origin:  &origin,
					MaxHits: 1, // existence probe: the first hit answers it
				})
				if err != nil {
					failures.Add(1)
					return
				}
				if resp.Degraded || len(resp.DegradedReasons) > 0 {
					degraded.Add(1)
				}
				liveHit[i] = resp.Found()
			}(i, q)
		}
		wg.Wait()
		if n := failures.Load(); n > 0 {
			t.Fatalf("%d clients: %d/%d REST queries failed", workers, n, queries)
		}
		if n := degraded.Load(); n > 0 {
			t.Fatalf("%d clients: %d responses degraded with no faults armed", workers, n)
		}
		liveHits = 0
		for i, q := range plan {
			want := holderDist(w, q.Origin, q.Key, ttl) <= ttl
			if liveHit[i] {
				liveHits++
			}
			if liveHit[i] != want || simHit[i] != want {
				t.Fatalf("%d clients: query %d (key %d from %d): live %v, sim %v, oracle %v",
					workers, i, q.Key, q.Origin, liveHit[i], simHit[i], want)
			}
		}
		t.Logf("%d clients: %d/%d hits, every answer the oracle's", workers, liveHits, queries)
	}

	// The REST plane's own counters must reflect the workload.
	stats, err := searchclient.New(srv.Addr()).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["daemon_queries_total"]; got != uint64(2*queries) {
		t.Fatalf("daemon_queries_total = %d, want %d", got, 2*queries)
	}
	if got := stats["daemon_queries_hit_total"]; got != uint64(2*liveHits) {
		t.Fatalf("daemon_queries_hit_total = %d, want %d", got, 2*liveHits)
	}
	if stats["node_queries_seen"] == 0 || stats["node_hits_served"] == 0 || stats["node_acks_sent"] == 0 {
		t.Fatalf("node counters missing from /v1/stats: %v", stats)
	}
	if got := stats["node_queries_window_fallback"]; got != 0 {
		t.Fatalf("node_queries_window_fallback = %d: queries ended on the window", got)
	}
	if stats["daemon_queries_degraded_total"] != 0 || stats["node_send_failed"] != 0 || stats["node_inbox_dropped"] != 0 {
		t.Fatalf("a clean run degraded or dropped: %v", stats)
	}
}

// TestDrainCompletesInflightQueries: SIGTERM-style drain must let an
// admitted query finish collecting (it holds the inflight group) and
// reject everything after the flip.
func TestDrainCompletesInflightQueries(t *testing.T) {
	srv, err := New(Config{
		Nodes: 16, Degree: 3, TTL: 3, Keys: 64, Replicas: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	client := searchclient.New(srv.Addr())
	ctx := context.Background()

	// A flood normally terminates in well under a millisecond. To keep a
	// query in flight across the drain, crash a neighbour of its origin:
	// the copy sent there vanishes, its ack never comes, and collection
	// runs to the end of the window.
	origin := 0
	if err := srv.Crash(int(srv.world.Net.Out(0)[0])); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		resp *searchclient.QueryResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := client.Query(ctx, searchclient.QueryRequest{
			Key: 1, Origin: &origin, TimeoutMillis: 400,
		})
		done <- outcome{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the query pass admission

	start := time.Now()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.State() != StateStopped {
		t.Fatalf("state after drain = %v, want stopped", srv.State())
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Fatalf("drain returned in %v, before the in-flight window could end", waited)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", out.err)
	}
	if got := reasonSet(out.resp.DegradedReasons); got != "crashed-nodes,deadline" {
		t.Fatalf("in-flight query reasons %q, want the window and the crash", got)
	}

	if _, err := client.Query(ctx, searchclient.QueryRequest{Key: 1}); err == nil {
		t.Fatal("query after drain succeeded, want refusal")
	}
}

// TestPauseResume: the control plane's pause gate rejects queries with
// 503 and resume restores service; readiness tracks the same state.
func TestPauseResume(t *testing.T) {
	srv, err := New(Config{
		Nodes: 8, Degree: 2, TTL: 2, Keys: 32, Replicas: 2, Seed: 3,
		QueryWindowMillis: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	client := searchclient.New(srv.Addr())
	ctx := context.Background()
	if err := client.Ready(ctx); err != nil {
		t.Fatalf("ready: %v", err)
	}
	if err := client.Pause(ctx); err != nil {
		t.Fatalf("pause: %v", err)
	}
	if err := client.Ready(ctx); err == nil {
		t.Fatal("readyz succeeded while paused")
	}
	_, err = client.Query(ctx, searchclient.QueryRequest{Key: 1})
	var se *searchclient.Error
	if !asError(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("query while paused: got %v, want 503", err)
	}
	if err := client.Pause(ctx); err == nil {
		t.Fatal("double pause succeeded, want conflict")
	}
	if err := client.Resume(ctx); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, err := client.Query(ctx, searchclient.QueryRequest{Key: 1, MaxHits: 1}); err != nil {
		t.Fatalf("query after resume: %v", err)
	}
}

// TestReconfigKeepsListsSymmetric drives POST /v1/control/reconfig on
// a 16-node cluster (World seed 11) whose ledgers a query plan has
// warmed: every hosted node reconfigures, and once the invitations
// settle, every list is listed back, within capacity and free of self —
// and at least one list changed, so the check is not vacuous.
func TestReconfigKeepsListsSymmetric(t *testing.T) {
	srv, err := New(Config{Nodes: 16, Degree: 2, TTL: 3, Keys: 32, Replicas: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	client := searchclient.New(srv.Addr())
	ctx := context.Background()

	lists := func() map[int][]topology.NodeID {
		out := map[int][]topology.NodeID{}
		for _, n := range srv.nodes {
			out[int(n.ID())] = n.Neighbors()
		}
		return out
	}
	// settle waits until three snapshots 20 ms apart agree.
	settle := func() map[int][]topology.NodeID {
		prev, same := lists(), 0
		for same < 2 {
			time.Sleep(20 * time.Millisecond)
			cur := lists()
			if maps.EqualFunc(prev, cur, slices.Equal) {
				same++
			} else {
				same = 0
			}
			prev = cur
		}
		return prev
	}
	before := lists()

	for _, q := range srv.world.QueryPlan(300) {
		origin := int(q.Origin)
		if _, err := client.Query(ctx, searchclient.QueryRequest{Key: uint64(q.Key), Origin: &origin}); err != nil {
			t.Fatalf("warm-up query: %v", err)
		}
	}
	if err := client.Reconfig(ctx); err != nil {
		t.Fatalf("reconfig: %v", err)
	}
	// The client drops the response body; a second round reads the
	// count off the wire.
	resp, err := http.Post("http://"+srv.Addr()+"/v1/control/reconfig", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Reconfigured int }
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || body.Reconfigured != len(srv.nodes) {
		t.Fatalf("reconfigured = %d (%v), want %d hosted nodes", body.Reconfigured, err, len(srv.nodes))
	}

	after := settle()
	capacity := srv.world.MaxDegree
	for id, l := range after {
		if len(l) > capacity {
			t.Errorf("node %d lists %v, over capacity %d", id, l, capacity)
		}
		for _, p := range l {
			if int(p) == id {
				t.Errorf("node %d lists itself: %v", id, l)
			} else if !slices.Contains(after[int(p)], topology.NodeID(id)) {
				t.Errorf("node %d lists %d, which lists %v", id, p, after[int(p)])
			}
		}
	}
	if maps.EqualFunc(before, after, slices.Equal) {
		t.Fatal("no list changed: reconfiguration did nothing")
	}
}

// asError unwraps a searchclient.Error.
func asError(err error, target **searchclient.Error) bool {
	return errors.As(err, target)
}

// TestQueryValidation: out-of-catalog keys, remote origins and request
// fields out of range are 400s that name what is wrong, not daemon
// crashes or silently substituted defaults.
func TestQueryValidation(t *testing.T) {
	srv, err := New(Config{Nodes: 4, Degree: 2, TTL: 2, Keys: 16, Replicas: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	client := searchclient.New(srv.Addr())
	ctx := context.Background()
	remote := 77
	for _, tc := range []struct {
		req  searchclient.QueryRequest
		want string
	}{
		{searchclient.QueryRequest{Key: 999}, "key"},
		{searchclient.QueryRequest{Key: 1, Origin: &remote}, "origin"},
		{searchclient.QueryRequest{Key: 1, TTL: -3}, "ttl"},
		{searchclient.QueryRequest{Key: 1, TTL: 256}, "ttl"},
		{searchclient.QueryRequest{Key: 1, TTL: 1000}, "ttl"},
		{searchclient.QueryRequest{Key: 1, MaxHits: -1}, "max_hits"},
		{searchclient.QueryRequest{Key: 1, TimeoutMillis: -5}, "timeout_ms"},
	} {
		_, err := client.Query(ctx, tc.req)
		var se *searchclient.Error
		if !asError(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(se.Message, tc.want) {
			t.Errorf("%+v: got %v, want 400 naming %s", tc.req, err, tc.want)
		}
	}

	// The edges of each range are served.
	if _, err := client.Query(ctx, searchclient.QueryRequest{Key: 1, TTL: 255, MaxHits: 1, TimeoutMillis: 30}); err != nil {
		t.Fatalf("in-range query: %v", err)
	}
}

// TestBodiesRejectUnknownFields: a body field the daemon does not
// declare — a retired one, a misspelt one — is a 400 that names it on
// every endpoint that reads a body, and so is data after the object.
func TestBodiesRejectUnknownFields(t *testing.T) {
	srv, err := New(Config{Nodes: 4, Degree: 2, TTL: 2, Keys: 32, Replicas: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	base := peerURL(srv.Addr())
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/query", `{"key":17,"deadline_ms":5,"timeuot_ms":1}`, `"deadline_ms"`},
		{"/v1/query", `{"key":17,"timeuot_ms":1}`, `"timeuot_ms"`},
		{"/v1/query", `{"key":17} {"key":18}`, "trailing data"},
		{"/v1/query", `{"key":1,"policy":"random-1"}`, `"policy"`},
		{"/v1/query/batch", `{"queries":[{"key":1},{"key":2,"ttll":3}]}`, `"ttll"`},
		{"/v1/query/batch", `{"queries":[{"key":1,"policy":"flood"}]}`, `"policy"`},
		{"/v1/control/crash", `{"node":1,"force":true}`, `"force"`},
		{"/v1/gossip", `{"d9":{"name":"d9","http":"127.0.0.1:1","nodez":4}}`, `"nodez"`},
		{"/v1/gossip", `{} {}`, "trailing data"},
	} {
		resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("POST %s %s: %d %q, want 400 naming %s", tc.path, tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	// Without the stray fields the same query is answered.
	if _, err := searchclient.New(srv.Addr()).Query(context.Background(),
		searchclient.QueryRequest{Key: 17, TimeoutMillis: 50}); err != nil {
		t.Fatalf("clean query: %v", err)
	}
}

// TestClientBodiesDecodeStrictly: every body pkg/searchclient sends
// decodes through decodeBody into the type its endpoint reads, to the
// value the client meant — the client sends nothing the daemon does not
// declare.
func TestClientBodiesDecodeStrictly(t *testing.T) {
	origin := 3
	query := searchclient.QueryRequest{
		Key: 7, TTL: 3, Origin: &origin, TimeoutMillis: 50, MaxHits: 1,
	}
	batch := []searchclient.QueryRequest{query, {Key: 9}}
	got := make(chan any, 4)
	mux := http.NewServeMux()
	route := func(pattern string, v func() any, answer string) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			body := v()
			if err := decodeBody(r, body); err != nil {
				t.Errorf("%s: %v", pattern, err)
			}
			got <- body
			_, _ = io.WriteString(w, answer)
		})
	}
	route("POST /v1/query", func() any { return new(searchclient.QueryRequest) }, `{}`)
	route("POST /v1/query/batch", func() any { return new(searchclient.BatchQueryRequest) },
		`{"results":[{},{}]}`)
	route("POST /v1/control/crash", func() any { return new(nodeFaultRequest) }, `{}`)
	route("POST /v1/control/restart", func() any { return new(nodeFaultRequest) }, `{}`)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, ctx := searchclient.New(ts.URL), context.Background()
	if _, err := c.Query(ctx, query); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(ctx, 6); err != nil {
		t.Fatal(err)
	}
	for _, want := range []any{
		&query, &searchclient.BatchQueryRequest{Queries: batch},
		&nodeFaultRequest{Node: 5}, &nodeFaultRequest{Node: 6},
	} {
		if body := <-got; !reflect.DeepEqual(body, want) {
			t.Errorf("decoded %+v, the client sent %+v", body, want)
		}
	}
}

// bootShards boots three in-process shards of base.Nodes nodes each,
// joined by gossip from a single seed address, and returns them with a
// client each once every shard's view names all three.
func bootShards(t *testing.T, base Config) ([]*Server, []*searchclient.Client) {
	t.Helper()
	var srvs []*Server
	for i := 0; i < 3; i++ {
		cfg := base
		cfg.BaseID = i * cfg.Nodes
		cfg.Name = fmt.Sprintf("shard%d", i)
		if i > 0 {
			cfg.Join = []string{srvs[0].Addr()}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		srv.Start()
		t.Cleanup(func() { srv.Drain(context.Background()) })
		srvs = append(srvs, srv)
	}

	ctx := context.Background()
	clients := make([]*searchclient.Client, 3)
	for i, srv := range srvs {
		clients[i] = searchclient.New(srv.Addr())
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		full := true
		for _, c := range clients {
			info, err := c.Cluster(ctx)
			if err != nil || len(info.Members) != 3 {
				full = false
				break
			}
		}
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("membership did not converge to 3 shards in 10s")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// One more round so every shard's transport address book covers the
	// last-learned members before queries cross shards.
	time.Sleep(150 * time.Millisecond)
	return srvs, clients
}

// TestThreeServersTCPGossipAndQueries boots a 12-node cluster as three
// shards in one test process: membership must converge by gossip from
// a single seed address, and cross-shard full floods must keep the
// exactness contract: an answer that is not degraded holds exactly the
// holders the BFS flood oracle names, and a degraded one none it does
// not name.
func TestThreeServersTCPGossipAndQueries(t *testing.T) {
	const (
		total, perShard, degree, ttl = 12, 4, 2, 3
		keys, replicas               = 64, 3
		seed                         = 7
	)
	_, clients := bootShards(t, Config{
		Total: total, Nodes: perShard,
		Seed: seed, Degree: degree, TTL: ttl, Keys: keys, Replicas: replicas,
		GossipIntervalMillis: 50, QueryWindowMillis: 150,
	})
	ctx := context.Background()

	w := BuildWorld(seed, total, degree, keys, replicas)
	plan := w.QueryPlan(150)
	hits, degraded := 0, 0
	for i, q := range plan {
		origin := int(q.Origin)
		shard := origin / perShard
		resp, err := clients[shard].Query(ctx, searchclient.QueryRequest{
			Key: uint64(q.Key), Origin: &origin,
		})
		if err != nil {
			t.Fatalf("query %d via shard %d: %v", i, shard, err)
		}
		oracle := floodHolders(w, q.Origin, q.Key, ttl)
		for _, h := range resp.Hits {
			if !slices.Contains(oracle, h.Holder) {
				t.Fatalf("query %d (key %d from %d): hit from %d, oracle holders %v",
					i, q.Key, origin, h.Holder, oracle)
			}
		}
		switch got := hitHolders(resp); {
		case resp.Degraded:
			degraded++
		case !slices.Equal(got, oracle):
			t.Fatalf("query %d (key %d from %d): undegraded holders %v, oracle holders %v",
				i, q.Key, origin, got, oracle)
		}
		if resp.Found() {
			hits++
		}
	}
	t.Logf("tcp: %d/%d hits, %d degraded", hits, len(plan), degraded)

	// Epochs moved with gossip, and the view names every shard.
	info, err := clients[2].Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch < 3 {
		t.Fatalf("epoch %d after convergence, want gossip-driven growth", info.Epoch)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("shard%d", i)
		found := false
		for _, m := range info.Members {
			if m.Name == name && m.Nodes == perShard && m.BaseID == i*perShard {
				found = true
			}
		}
		if !found {
			t.Fatalf("member %s missing or wrong in view %+v", name, info.Members)
		}
	}
}

// TestShardHopsStayInProcess: once three shards have converged, each
// process's TCP transport has a destination for every peer node and
// none for its own, so a hop between two of its nodes never touches
// its socket.
func TestShardHopsStayInProcess(t *testing.T) {
	const total, perShard = 12, 4
	srvs, _ := bootShards(t, Config{Total: total, Nodes: perShard, GossipIntervalMillis: 50})
	// An ack naming no activation record: a receiver drops it unread.
	probe := live.Envelope{Type: live.MsgAck, Slot: math.MaxUint16}
	for i, srv := range srvs {
		for id := 0; id < total; id++ {
			err := srv.tcpT.Send(topology.NodeID(id), probe)
			switch own := srv.localNode(id) != nil; {
			case own && (err == nil || !strings.Contains(err.Error(), "no address")):
				t.Errorf("shard %d: own node %d through TCP: %v, want no address", i, id, err)
			case !own && err != nil:
				t.Errorf("shard %d: peer node %d through TCP: %v", i, id, err)
			}
		}
	}
}

// TestEnvelopeOutsideShardDropped: a frame reaching a process's
// envelope listener for a node outside its shard is dropped and
// counted as an inbox drop; no local node sees it.
func TestEnvelopeOutsideShardDropped(t *testing.T) {
	srv, err := New(Config{
		BaseID: 4, Nodes: 4, Total: 12,
		GossipIntervalMillis: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	tr := live.NewTCPTransport()
	defer tr.Close()
	outside := []topology.NodeID{3, 8, 1 << 30, -1}
	for _, id := range outside {
		tr.SetAddr(id, srv.g.Self().EnvAddr)
		if err := tr.Send(id, live.Envelope{Type: live.MsgQuery, From: 0, QueryID: 1, TTL: 3}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	stats := srv.nodeStats
	for deadline := time.Now().Add(5 * time.Second); stats.InboxDropped.Load() < uint64(len(outside)); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d out-of-shard frames counted as dropped",
				stats.InboxDropped.Load(), len(outside))
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	snap, err := searchclient.New(srv.Addr()).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap["node_inbox_dropped"]; got != uint64(len(outside)) {
		t.Fatalf("node_inbox_dropped = %d, want %d", got, len(outside))
	}
	if seen := snap["node_queries_seen"]; seen != 0 {
		t.Fatalf("a local node processed %d out-of-shard queries", seen)
	}
}
