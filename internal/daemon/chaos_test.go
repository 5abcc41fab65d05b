package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/pkg/searchclient"
)

// chaosSchedulePlan is the scripted outage of the chaos harness: five
// crash/restart pairs spread over three seconds.
func chaosSchedulePlan(nodes int) faults.CrashPlan {
	return faults.CrashPlan{
		Nodes:         nodes,
		Crashes:       5,
		SpanMillis:    3000,
		MinDownMillis: 300,
		MaxDownMillis: 900,
	}
}

// TestChaosScheduleByteIdentity: the acceptance bar for deterministic
// chaos — the same seed must regenerate the exact same fault schedule,
// byte for byte.
func TestChaosScheduleByteIdentity(t *testing.T) {
	plan := chaosSchedulePlan(50)
	a, err := faults.GenCrashSchedule(42, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.GenCrashSchedule(42, plan)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("same seed produced different schedules:\n%s\n%s", aj, bj)
	}
	c, err := faults.GenCrashSchedule(43, plan)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(cj) == string(aj) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestChaosQueriesSurviveFaults is the chaos harness: a 50-node
// in-process cluster with 10% deterministic message drop serves the
// deterministic query plan while a scripted schedule crashes and
// restarts five nodes. At least 95% of queries must be answered within
// their deadline, every answered response must be internally coherent
// (Degraded iff it declares reasons, reasons from the documented set),
// responses produced while nodes were down must say so, and the
// cluster must come back clean once the schedule ends.
func TestChaosQueriesSurviveFaults(t *testing.T) {
	const (
		nodes, degree, ttl = 50, 3, 3
		keys, replicas     = 200, 3
		seed               = 42
		workers            = 32
		deadlineMillis     = 1000
	)
	srv, err := New(Config{
		Nodes: nodes, Degree: degree, TTL: ttl,
		Keys: keys, Replicas: replicas, Seed: seed,
		QueryWindowMillis: 50,
		Faults:            FaultsConfig{Drop: 0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	sched, err := faults.GenCrashSchedule(seed, chaosSchedulePlan(nodes))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	schedDone := make(chan error, 1)
	go func() { schedDone <- sched.Run(ctx, srv) }()

	w := BuildWorld(seed, nodes, degree, keys, replicas)
	plan := w.QueryPlan(600)
	client := fanClient(srv.Addr(), workers)

	var answered, failed, degraded, hits atomic.Int64
	known := map[string]bool{
		searchclient.ReasonDeadline:      true,
		searchclient.ReasonOverload:      true,
		searchclient.ReasonOriginCrashed: true,
		searchclient.ReasonNoFanout:      true,
		searchclient.ReasonSuspects:      true,
		searchclient.ReasonCrashedNodes:  true,
	}
	var mu sync.Mutex
	var incoherent []string

	runPlan := func() {
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
					Key:            uint64(q.Key),
					Origin:         &origin,
					MaxHits:        1,
					DeadlineMillis: deadlineMillis,
				})
				if err != nil {
					failed.Add(1)
					return
				}
				answered.Add(1)
				if resp.Found() {
					hits.Add(1)
				}
				if resp.Degraded != (len(resp.DegradedReasons) > 0) {
					mu.Lock()
					incoherent = append(incoherent, fmt.Sprintf(
						"query %d: degraded=%v with reasons %v", i, resp.Degraded, resp.DegradedReasons))
					mu.Unlock()
				}
				if resp.Degraded {
					degraded.Add(1)
					for _, r := range resp.DegradedReasons {
						if !known[r] {
							mu.Lock()
							incoherent = append(incoherent, fmt.Sprintf(
								"query %d: unknown degradation reason %q", i, r))
							mu.Unlock()
						}
					}
				}
			}(i, q)
		}
		wg.Wait()
	}

	// Keep replaying the plan until the scripted outage has fully
	// played out, so queries demonstrably overlap every crash window.
	runPlan()
	for {
		select {
		case err := <-schedDone:
			if err != nil {
				t.Fatalf("schedule run: %v", err)
			}
			goto schedOver
		default:
			runPlan()
		}
	}
schedOver:

	total := answered.Load() + failed.Load()
	if total == 0 {
		t.Fatal("no queries ran")
	}
	if coverage := float64(answered.Load()) / float64(total); coverage < 0.95 {
		t.Fatalf("only %.1f%% of %d queries answered within deadline (want >= 95%%)",
			coverage*100, total)
	}
	if len(incoherent) > 0 {
		t.Fatalf("%d incoherent responses, first: %s", len(incoherent), incoherent[0])
	}
	// Five crashes over the run: some responses must have been produced
	// while nodes were down, and say so.
	if degraded.Load() == 0 {
		t.Fatal("scripted crashes produced no degraded responses")
	}
	if hits.Load() == 0 {
		t.Fatal("no hits at all under 10% drop (cluster not actually serving)")
	}
	t.Logf("answered %d/%d (%d degraded, %d hits)",
		answered.Load(), total, degraded.Load(), hits.Load())

	// The fault plane actually dropped messages, and says so on the
	// stats surface.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["faults_dropped"] == 0 {
		t.Fatalf("faults_dropped = 0 under 10%% drop: %v", stats)
	}
	if stats["daemon_queries_degraded_total"] == 0 {
		t.Fatal("daemon_queries_degraded_total = 0")
	}

	// Every crash was lifted by its scripted restart: the cluster is
	// clean again — no crashed nodes in the view, fresh queries are not
	// degraded by crashes.
	info, err := client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range info.LocalNodes {
		if n.Crashed {
			t.Fatalf("node %d still crashed after the schedule healed", n.ID)
		}
	}
	resp, err := client.Query(ctx, searchclient.QueryRequest{Key: uint64(plan[0].Key), MaxHits: 1})
	if err != nil {
		t.Fatalf("post-heal query: %v", err)
	}
	for _, r := range resp.DegradedReasons {
		if r == searchclient.ReasonCrashedNodes || r == searchclient.ReasonOriginCrashed {
			t.Fatalf("post-heal response still crash-degraded: %v", resp.DegradedReasons)
		}
	}
}

// TestCrashRestartControlPlane exercises the fault-injection HTTP
// surface end to end: crash a pinned origin and the daemon reroutes
// and declares it; crash everything and the daemon 503s with a
// Retry-After; restart and service is clean again.
func TestCrashRestartControlPlane(t *testing.T) {
	const nodes = 4
	srv, err := New(Config{
		Nodes: nodes, Degree: 2, TTL: 2, Keys: 32, Replicas: 2, Seed: 3,
		QueryWindowMillis: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	client := searchclient.New(srv.Addr(), searchclient.WithRetry(0, 0))
	ctx := context.Background()

	if err := client.Crash(ctx, 0); err != nil {
		t.Fatalf("crash: %v", err)
	}
	info, err := client.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sawCrashed := false
	for _, n := range info.LocalNodes {
		if n.ID == 0 && n.Crashed {
			sawCrashed = true
		}
	}
	if !sawCrashed {
		t.Fatalf("cluster view does not report node 0 crashed: %+v", info.LocalNodes)
	}

	// A query pinned to the crashed origin is rerouted and degraded.
	origin := 0
	resp, err := client.Query(ctx, searchclient.QueryRequest{
		Key: 1, Origin: &origin, MaxHits: 1,
	})
	if err != nil {
		t.Fatalf("query via crashed origin: %v", err)
	}
	if !resp.Degraded || resp.Origin == 0 {
		t.Fatalf("rerouted response: degraded=%v origin=%d", resp.Degraded, resp.Origin)
	}
	found := false
	for _, r := range resp.DegradedReasons {
		if r == searchclient.ReasonOriginCrashed {
			found = true
		}
	}
	if !found {
		t.Fatalf("rerouted response lacks %q: %v",
			searchclient.ReasonOriginCrashed, resp.DegradedReasons)
	}

	// Crashing a node this daemon does not host is the caller's error.
	if err := client.Crash(ctx, 99); err == nil {
		t.Fatal("crash of remote node accepted")
	}

	// Crash the rest: admission has nowhere to route, so queries are
	// 503 with a Retry-After hint.
	for id := 1; id < nodes; id++ {
		if err := client.Crash(ctx, id); err != nil {
			t.Fatalf("crash %d: %v", id, err)
		}
	}
	_, err = client.Query(ctx, searchclient.QueryRequest{Key: 1})
	var se *searchclient.Error
	if !asError(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("query with all nodes down: got %v, want 503", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("503 carried no Retry-After: %+v", se)
	}

	// Restart everything: service is clean again.
	for id := 0; id < nodes; id++ {
		if err := client.Restart(ctx, id); err != nil {
			t.Fatalf("restart %d: %v", id, err)
		}
	}
	resp, err = client.Query(ctx, searchclient.QueryRequest{Key: 1, MaxHits: 1, TimeoutMillis: 50})
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	for _, r := range resp.DegradedReasons {
		if r == searchclient.ReasonCrashedNodes || r == searchclient.ReasonOriginCrashed {
			t.Fatalf("post-restart response still crash-degraded: %v", resp.DegradedReasons)
		}
	}

	// A deadline budget degrades only what it cuts. A flood that finishes
	// inside the budget is complete; one that cannot finish (node 0's
	// neighbour is down, so an ack never comes) is cut off at the budget
	// and says so, instead of erroring or waiting out the window.
	origin = 0
	resp, err = client.Query(ctx, searchclient.QueryRequest{
		Key: 1, Origin: &origin, TimeoutMillis: 500, DeadlineMillis: 250,
	})
	if err != nil || resp.Degraded {
		t.Fatalf("budgeted query on a healthy cluster: err %v, reasons %v", err, resp.DegradedReasons)
	}
	if err := client.Crash(ctx, int(srv.world.Net.Out(0)[0])); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err = client.Query(ctx, searchclient.QueryRequest{
		Key: 1, Origin: &origin, TimeoutMillis: 5000, DeadlineMillis: 20,
	})
	if err != nil {
		t.Fatalf("deadline query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("20ms budget held the query for %v", elapsed)
	}
	sawDeadline := false
	for _, r := range resp.DegradedReasons {
		if r == searchclient.ReasonDeadline {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("20ms budget not declared: degraded=%v reasons=%v",
			resp.Degraded, resp.DegradedReasons)
	}
}

// TestPartitionHealViaTarget drives the faults.Target surface of the
// server directly: a partition splits the shard into two halves that
// cannot hear each other, and heal restores full reachability.
func TestPartitionHealViaTarget(t *testing.T) {
	const nodes = 8
	srv, err := New(Config{
		Nodes: nodes, Degree: 3, TTL: 3, Keys: 32, Replicas: 2, Seed: 11,
		QueryWindowMillis: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())

	groupA := []int{0, 1, 2, 3}
	groupB := []int{4, 5, 6, 7}
	if err := srv.Partition([][]int{groupA, groupB}); err != nil {
		t.Fatal(err)
	}
	before := srv.FaultStats().Blocked.Load()

	client := searchclient.New(srv.Addr())
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		origin := i % nodes
		if _, err := client.Query(ctx, searchclient.QueryRequest{
			Key: uint64(i % 32), Origin: &origin,
		}); err != nil {
			t.Fatalf("query under partition: %v", err)
		}
	}
	if srv.FaultStats().Blocked.Load() == before {
		t.Fatal("partition blocked no cross-group traffic")
	}

	if err := srv.Heal(); err != nil {
		t.Fatal(err)
	}
	after := srv.FaultStats().Blocked.Load()
	for i := 0; i < 8; i++ {
		origin := i % nodes
		if _, err := client.Query(ctx, searchclient.QueryRequest{
			Key: uint64(i % 32), Origin: &origin, MaxHits: 1,
		}); err != nil {
			t.Fatalf("query after heal: %v", err)
		}
	}
	if srv.FaultStats().Blocked.Load() != after {
		t.Fatal("healed transport still blocking")
	}
}
