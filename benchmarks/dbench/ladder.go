package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/driver"
	"repro/internal/eventq"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/pkg/search"
	"repro/pkg/searchclient"
)

// perLayer names every per-layer metric the traced run reports; the
// module a metric belongs to is its prefix. They are measured from
// outside, by timing calls into each layer's public functions on a
// quarter of the plans, and have no bound. README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "core.cascade_us_per_query", Unit: "us", Better: "lower"},
	{Name: "core.msgs_per_query", Unit: "count", Better: "lower"},
	{Name: "core.visited_per_query", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "core.generic_us_per_query", Unit: "us", Better: "lower"},
	{Name: "eventq.monotone_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "eventq.queue_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "topology.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.publish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "topology.publish_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "topology.epochs_published", Unit: "count", Better: "higher"},
	{Name: "topology.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "topology.buffers", Unit: "count", Better: "lower"},
	{Name: "search.do_us_per_query", Unit: "us", Better: "lower"},
	{Name: "search.do_allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "search.facade_overhead_us", Unit: "us", Better: "lower"},
	{Name: "search.saturate_us_per_query", Unit: "us", Better: "lower"},
	{Name: "search.saturate_speedup", Unit: "ratio", Better: "higher"},
	{Name: "search.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "live.query_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.query_miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "live.msgs_per_query", Unit: "count", Better: "lower"},
	{Name: "live.useful_copy_share", Unit: "share", Better: "higher"},
	{Name: "live.inbox_dropped", Unit: "count", Better: "lower"},
	{Name: "live.flip_share", Unit: "share", Better: "lower"},
	{Name: "live.fabric_overhead_us", Unit: "us", Better: "lower"},
	{Name: "live.chan_send_ns", Unit: "ns", Better: "lower"},
	{Name: "live.tcp_send_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "faults.passthrough_ns", Unit: "ns", Better: "lower"},
	{Name: "daemon.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "daemon.batch_handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "daemon.handler_overhead_us", Unit: "us", Better: "lower"},
	{Name: "daemon.http_stack_us", Unit: "us", Better: "lower"},
	{Name: "daemon.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "daemon.queries_degraded", Unit: "count", Better: "lower"},
	{Name: "daemon.queries_rejected", Unit: "count", Better: "lower"},
	{Name: "searchclient.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "searchclient.raw_post_us_p50", Unit: "us", Better: "lower"},
	{Name: "searchclient.codec_us", Unit: "us", Better: "lower"},
	{Name: "searchclient.batch_codec_us_per_query", Unit: "us", Better: "lower"},
	{Name: "searchclient.retries", Unit: "count", Better: "lower"},
	{Name: "driver.session_us_per_query", Unit: "us", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "experiments.cell_ms.fig1", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_ms.fig2", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_ms.fig3a", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_ms.fig3b", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_ms.webcache", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_ms.peerolap", Unit: "ms", Better: "lower"},
	{Name: "runner.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.latency_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "host.ref_kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "dbench.tracing_overhead_pct", Unit: "%", Better: "lower"},
}

// ladder is one traced run: it drives a quarter of each plan through
// every layer in turn, recording a span around every call, and derives
// the per-layer numbers from the spans — a rung's cost is its own time
// minus the time of the rung below it.
type ladder struct {
	cfg   runConfig
	tr    *tracer
	m     map[string]value
	notes map[string]string
	// wrong counts answers that differ from the oracle on the rungs
	// that have a certain verdict; checked is how many were compared.
	wrong, checked int64

	// The parity world, every (origin, key) pair of it in seeded order,
	// and the certain hits among them: the REST and live rungs' plans.
	rw             *restWorld
	pairs, certain []query
}

func (l *ladder) set(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			l.m[name] = value{v, d.Unit}
			return
		}
	}
	panic("dbench: metric " + name + " is not in perLayer")
}

func (l *ladder) get(name string) float64 { return l.m[name].Value }

// n scales a probe size for -smoke.
func (l *ladder) n(full, floor int) int { return l.cfg.scaled(full, floor) }

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// p50us and meanus summarise the spans called name, in microseconds.
func (l *ladder) p50us(name string) float64 {
	return float64(percentile(sortedCopy(l.tr.durations(name)), 50)) / 1e3
}

func (l *ladder) meanus(name string) float64 {
	ds := l.tr.durations(name)
	if len(ds) == 0 {
		return 0
	}
	var sum int64
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e3
}

// runLadder is the traced run. It is the same for every workload: the
// per-layer metrics describe the layers, and a layer costs what it
// costs whichever workload asked for the trace.
func runLadder(cfg runConfig, tracePath string) (result, error) {
	l := &ladder{cfg: cfg, tr: newTracer(), m: map[string]value{}, notes: map[string]string{}}
	l.rw = newRestWorld(cfg.plan.Worlds["parity50"])
	l.pairs = l.rw.w.allPairs(newRand(cfg.seed, 3))
	l.certain = l.rw.certainHits(l.pairs)
	for _, step := range []func() error{
		l.restRungs, l.liveRungs, l.transportRungs, l.engineRungs,
		l.queueRungs, l.simRungs,
	} {
		if err := step(); err != nil {
			return result{}, err
		}
	}

	l.set("searchclient.codec_us", l.get("searchclient.query_us_p50")-l.get("searchclient.raw_post_us_p50"))
	l.set("daemon.http_stack_us", l.get("searchclient.raw_post_us_p50")-l.get("daemon.handler_us_p50"))
	l.set("daemon.handler_overhead_us", l.get("daemon.handler_us_p50")-l.get("live.query_hit_us_p50"))
	do50 := l.p50us("search.Engine.Do/parity50")
	l.set("live.fabric_overhead_us", l.get("live.query_hit_us_p50")-do50)
	l.set("search.facade_overhead_us", l.get("search.do_us_per_query")-l.get("core.cascade_us_per_query"))
	l.set("search.saturate_speedup", l.get("search.do_us_per_query")/l.get("search.saturate_us_per_query"))
	sum := l.get("searchclient.codec_us") + l.get("daemon.http_stack_us") + l.get("daemon.handler_overhead_us") +
		l.get("live.fabric_overhead_us") + do50
	l.notes["ladder"] = fmt.Sprintf("codec %.1f + http stack %.1f + handler %.1f + fabric %.1f + Engine.Do %.1f = %.1f us; searchclient.query_us_p50 %.1f us",
		l.get("searchclient.codec_us"), l.get("daemon.http_stack_us"), l.get("daemon.handler_overhead_us"),
		l.get("live.fabric_overhead_us"), do50, sum, l.get("searchclient.query_us_p50"))

	if err := l.tr.write(tracePath, stampEnv(), cfg.spec.Name, cfg.seed); err != nil {
		return result{}, fmt.Errorf("write %s: %w", tracePath, err)
	}
	l.notes["trace"] = fmt.Sprintf("%d spans written to %s", len(l.tr.spans), tracePath)
	// host.ref_kernel_ms is filled in by main, which times the kernel
	// around the whole run.
	for _, d := range perLayer {
		if _, ok := l.m[d.Name]; !ok && d.Name != "host.ref_kernel_ms" {
			return result{}, fmt.Errorf("traced run did not produce %s", d.Name)
		}
	}
	return result{
		verdict: verdict{Correct: l.wrong == 0 && l.checked > 0, Attempted: l.checked, Metrics: l.m},
		Notes:   l.notes,
	}, nil
}

// callRate is a phase's throughput in calls per second, as the
// end-to-end metric takes it: the midmean over its segments.
func callRate(ph phase) float64 {
	rates, _, _ := segmentStats(ph.calls, equalParts(len(ph.calls), segments), 50)
	return midmean(rates)
}

// serial runs f once per plan entry on one goroutine, each call in a
// span of its own under a pass span, and returns the pass span.
func (l *ladder) serial(name string, n int, f func(i int)) int32 {
	pass := l.tr.open("pass:" + name)
	for i := 0; i < n; i++ {
		l.tr.call(name, pass, int64(i), func() { f(i) })
	}
	l.tr.close(pass)
	return pass
}

func (l *ladder) count(ok bool) {
	l.checked++
	if !ok {
		l.wrong++
	}
}

// restRungs measures the REST chain over the certain-hit slice: the
// client, a raw POST of the same bodies, the daemon's own handler
// histogram, the batch plane, and boot and drain.
func (l *ladder) restRungs() error {
	rw, spec := l.rw, l.rw.spec
	n := l.n(4000, 50)
	qs := cycle(l.certain, 0, n)
	reqs := requests(qs, 1)
	ctx := context.Background()

	// Boot and drain, three times over.
	var boots, drains []float64
	for i := 0; i < 3; i++ {
		var rs *restServer
		var err error
		l.tr.call("daemon.boot", 0, -1, func() { rs, err = bootRest(spec) })
		if err != nil {
			return err
		}
		l.tr.call("daemon.drain", 0, -1, rs.stop)
	}
	for _, d := range l.tr.durations("daemon.boot") {
		boots = append(boots, float64(d)/1e6)
	}
	for _, d := range l.tr.durations("daemon.drain") {
		drains = append(drains, float64(d)/1e6)
	}
	l.set("daemon.boot_ms", medianFloat(boots))
	l.set("daemon.drain_ms", medianFloat(drains))

	rs, err := bootRest(spec)
	if err != nil {
		return err
	}
	defer rs.stop()
	sent := 0 // requests this run put on /v1/query and /v1/query/batch

	// Rung 1: the client, serially. The handler histogram is read
	// right after, while it holds only these calls.
	l.serial("searchclient.Query", n, func(i int) {
		resp, err := rs.client.Query(ctx, reqs[i])
		l.count(err == nil && rw.checkResponse(qs[i], resp))
	})
	sent += n
	l.set("searchclient.query_us_p50", l.p50us("searchclient.Query"))
	l.set("daemon.handler_us_p50", float64(rs.srv.Stats().Latency("http_query").QuantileMicros(0.5)))

	// Rung 2: the same bodies, pre-encoded, through plain net/http with
	// the answer drained and dropped: what the client's codec and retry
	// machinery add on top is the difference.
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i], _ = json.Marshal(reqs[i])
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	url := "http://" + rs.srv.Addr() + "/v1/query"
	var postErr error
	l.serial("http.raw_post", n, func(i int) {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			postErr = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		l.count(resp.StatusCode == http.StatusOK)
	})
	hc.CloseIdleConnections()
	if postErr != nil {
		return fmt.Errorf("raw POST: %w", postErr)
	}
	sent += n
	l.set("searchclient.raw_post_us_p50", l.p50us("http.raw_post"))

	// The rest-hit workload itself, a second untraced and a second
	// traced: the difference is what recording spans costs.
	clients := l.cfg.clients()
	d := time.Duration(l.cfg.scale * float64(time.Second))
	plain := closedLoop(clients, d, 1, func(_, i int) opResult {
		return rs.single(rw, qs[i%n], reqs[i%n])
	})
	pass := l.tr.open("pass:rest-hit")
	traced := closedLoop(clients, d, 1, func(_, i int) opResult {
		var r opResult
		l.tr.call("rest-hit", pass, int64(i%n), func() { r = rs.single(rw, qs[i%n], reqs[i%n]) })
		return r
	})
	l.tr.close(pass)
	sent += len(plain.calls) + len(traced.calls)
	l.wrong += plain.inexact + traced.inexact
	l.checked += plain.checked + traced.checked
	up, tp := callRate(plain), callRate(traced)
	l.set("dbench.tracing_overhead_pct", (up-tp)/up*100)
	l.notes["tracing"] = fmt.Sprintf("rest-hit untraced %.0f/s, traced %.0f/s", up, tp)

	// The batch plane: slabs of the uniform mix.
	slab := 1024
	plan := rw.spreadMisses(l.pairs)
	slabs := l.n(6, 1)
	var serverMillis float64
	pass = l.tr.open("pass:searchclient.QueryBatch")
	for i := 0; i < slabs; i++ {
		sq := cycle(plan, i*slab, slab)
		sr := requests(sq, 1)
		var resp *searchclient.BatchQueryResponse
		var err error
		l.tr.call("searchclient.QueryBatch", pass, int64(i), func() { resp, err = rs.client.QueryBatch(ctx, sr) })
		if err != nil {
			return fmt.Errorf("batch rung: %w", err)
		}
		serverMillis += resp.ElapsedMillis
		// Only certain verdicts are checked here; flips are the live
		// rungs' business.
		for k := range resp.Results {
			if want := rw.answer(sq[k]); !want.found() || want.nearest() == 1 {
				l.count(resp.Results[k].OK() && rw.checkResponse(sq[k], &resp.Results[k].QueryResponse))
			}
		}
	}
	l.tr.close(pass)
	var clientMillis float64
	for _, dur := range l.tr.durations("searchclient.QueryBatch") {
		clientMillis += float64(dur) / 1e6
	}
	queries := float64(slabs * slab)
	l.set("daemon.batch_handler_ms_p50", float64(rs.srv.Stats().Latency("http_query_batch").QuantileMicros(0.5))/1e3)
	l.set("daemon.batch_us_per_query", serverMillis*1e3/queries)
	l.set("searchclient.batch_codec_us_per_query", (clientMillis-serverMillis)*1e3/queries)

	snap := rs.srv.Stats().Snapshot()
	l.set("daemon.queries_degraded", float64(snap["daemon_queries_degraded_total"]))
	l.set("daemon.queries_rejected", float64(snap["daemon_queries_rejected_total"]))
	l.set("searchclient.retries", float64(snap["http_query_count"]+snap["http_query_batch_count"])-float64(sent+slabs))
	return nil
}

// liveFabric is a chan fabric the benchmark wires itself from the
// parity world: the live runtime without the daemon around it.
type liveFabric struct {
	nodes []*live.Node
	stats *live.NodeStats
}

func newLiveFabric(w *world) *liveFabric {
	ct := live.NewChanTransport()
	f := &liveFabric{stats: &live.NodeStats{}, nodes: make([]*live.Node, w.nodes())}
	maxDeg := 1
	for _, nbs := range w.adj {
		if len(nbs) > maxDeg {
			maxDeg = len(nbs)
		}
	}
	for i := range f.nodes {
		store := live.MapStore{}
		for _, k := range w.held[i] {
			store.Add(core.Key(k))
		}
		f.nodes[i] = live.NewNode(live.Config{
			ID: topology.NodeID(i), Neighbors: maxDeg, TTL: w.ttl,
			Transport: ct, Store: store, Class: netsim.Cable, Stats: f.stats,
		})
		ct.Attach(f.nodes[i])
		f.nodes[i].Start()
	}
	for i, nbs := range w.adj {
		for _, nb := range nbs {
			f.nodes[i].AddNeighbor(topology.NodeID(nb))
		}
	}
	return f
}

func (f *liveFabric) stop() {
	for _, n := range f.nodes {
		n.Close()
	}
}

// traffic is the number of query copies processed so far; quiesce
// waits until floods still in flight have died down.
func (f *liveFabric) traffic() uint64 {
	return f.stats.QueriesSeen.Load() + f.stats.QueriesForwarded.Load() + f.stats.HitsServed.Load()
}

func (f *liveFabric) quiesce() {
	for last, calm := f.traffic(), 0; calm < 5; {
		time.Sleep(2 * time.Millisecond)
		if now := f.traffic(); now == last {
			calm++
		} else {
			last, calm = now, 0
		}
	}
}

// settle yields until the flood of the query just answered has died
// down. An answer with MaxHits 1 returns on the first hit while the
// rest of the flood is still travelling; over REST the HTTP round trip
// leaves it time to finish, and a serial loop straight on the fabric
// has to leave it the same, or each query queues behind the last one.
func (f *liveFabric) settle() {
	for last := f.traffic(); ; {
		for i := 0; i < 20; i++ {
			runtime.Gosched()
		}
		now := f.traffic()
		if now == last {
			return
		}
		last = now
	}
}

func (f *liveFabric) query(q query, window time.Duration) ([]live.SearchHit, live.QueryInfo) {
	return f.nodes[q.origin].QueryInfo(live.QueryOpts{Key: core.Key(q.key), Timeout: window, MaxHits: 1})
}

// liveRungs measures the live runtime on its own fabric: certain hits,
// true misses, how much of the flood is duplicate copies, and how often
// an oracle hit two or three hops out flips into a miss. Below it, the
// same queries through Engine.Do and the simulated twin's session.
func (l *ladder) liveRungs() error {
	rw, spec, pairs, certain := l.rw, l.rw.spec, l.pairs, l.certain
	window := 100 * time.Millisecond // the daemon's default query window
	fab := newLiveFabric(rw.w)
	defer fab.stop()

	n := l.n(4000, 50)
	qs := cycle(certain, 0, n)
	fab.quiesce()
	seen0, fwd0 := fab.stats.QueriesSeen.Load(), fab.stats.QueriesForwarded.Load()
	fanout := 0
	pass := l.tr.open("pass:live.Node.QueryInfo/hit")
	for i := 0; i < n; i++ {
		l.tr.call("live.Node.QueryInfo/hit", pass, int64(i), func() {
			hits, info := fab.query(qs[i], window)
			fanout += info.Fanout
			l.count(len(hits) > 0)
		})
		fab.settle()
	}
	l.tr.close(pass)
	fab.quiesce()
	copies := float64(fab.stats.QueriesForwarded.Load()-fwd0) + float64(fanout)
	l.set("live.query_hit_us_p50", l.p50us("live.Node.QueryInfo/hit"))
	l.set("live.msgs_per_query", copies/float64(n))
	l.set("live.useful_copy_share", float64(fab.stats.QueriesSeen.Load()-seen0)/copies)

	var misses, likely []query
	for _, q := range pairs {
		if rw.answer(q).found() {
			likely = append(likely, q)
		} else {
			misses = append(misses, q)
		}
	}
	clients := l.cfg.clients()
	misses = cycle(misses, 0, l.n(20, 2))
	pass = l.tr.open("pass:live.Node.QueryInfo/miss")
	closedLoopN(clients, len(misses), func(_, i int) opResult {
		l.tr.call("live.Node.QueryInfo/miss", pass, int64(i), func() {
			hits, _ := fab.query(misses[i], window)
			if len(hits) > 0 {
				atomic.AddInt64(&l.wrong, 1)
			}
			atomic.AddInt64(&l.checked, 1)
		})
		return opResult{}
	})
	l.tr.close(pass)
	l.set("live.query_miss_ms_p50", l.p50us("live.Node.QueryInfo/miss")/1e3)

	likely = cycle(likely, 0, l.n(3000, 50))
	var flips atomic.Int64
	pass = l.tr.open("pass:live.Node.QueryInfo/mix")
	closedLoopN(clients, len(likely), func(_, i int) opResult {
		l.tr.call("live.Node.QueryInfo/mix", pass, int64(i), func() {
			if hits, _ := fab.query(likely[i], window); len(hits) == 0 {
				flips.Add(1)
			}
		})
		return opResult{}
	})
	l.tr.close(pass)
	fab.quiesce()
	l.set("live.flip_share", float64(flips.Load())/float64(len(likely)))
	l.set("live.inbox_dropped", float64(fab.stats.InboxDropped.Load()+fab.stats.SendFailed.Load()))

	// The same certain hits through Engine.Do over the same graph...
	net := topology.NewNetwork(topology.Symmetric, rw.w.nodes(), 0, 0)
	for a, nbs := range rw.w.adj {
		for _, b := range nbs {
			net.Connect(topology.NodeID(a), topology.NodeID(b))
		}
	}
	eng, err := search.New(search.Over(net.Freeze(), rw.w), search.WithTTL(spec.TTL))
	if err != nil {
		return err
	}
	ctx := context.Background()
	l.serial("search.Engine.Do/parity50", n, func(i int) {
		res, err := eng.Do(ctx, search.Query{ID: uint64(i), Key: core.Key(qs[i].key), Origin: topology.NodeID(qs[i].origin), MaxResults: 1})
		l.count(err == nil && res.Found())
	})

	// ...and through the simulated twin's session, as the parity
	// harness builds it.
	dw := daemon.BuildWorld(spec.Seed, spec.Nodes, spec.Degree, spec.Keys, spec.Replicas)
	sess, err := driver.New(driver.Spec{
		Nodes: spec.Nodes, Relation: topology.Symmetric, Duration: 3600,
		Content: dw, Policy: "flood", TTL: spec.TTL,
		Place: func(s *driver.Session) { dw.WireInto(s.Network()) },
	}, rng.New(7))
	if err != nil {
		return err
	}
	sess.Start()
	l.serial("driver.Session.Do", n, func(i int) {
		res := sess.Do(search.Query{ID: uint64(i + 1), Key: core.Key(qs[i].key), Origin: topology.NodeID(qs[i].origin)})
		l.count(res.Found())
	})
	l.set("driver.session_us_per_query", l.meanus("driver.Session.Do"))
	return nil
}

// chunked times n calls of f in chunks, running between (untimed)
// after every chunk, and returns nanoseconds per call.
func chunked(n, chunk int, f func(), between func()) float64 {
	var total time.Duration
	for done := 0; done < n; done += chunk {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			f()
		}
		total += time.Since(start)
		between()
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// transportRungs times the message planes by themselves: a send into
// the chan fabric, the same through the fault plane with nothing
// armed, a send over loopback TCP, and one histogram observation.
func (l *ladder) transportRungs() error {
	env := live.Envelope{Type: live.MsgQuery, From: 1, QueryID: 7, Key: 3, Origin: 1, TTL: 3, Hops: 1}
	ct := live.NewChanTransport()
	box := ct.Register(0)
	drain := func() {
		for len(box) > 0 {
			<-box
		}
	}
	n := l.n(400_000, 2000)
	pass := l.tr.open("pass:live.ChanTransport.Send")
	bare := chunked(n, 500, func() { _ = ct.Send(0, env) }, drain)
	l.tr.close(pass)
	ft := faults.Wrap(ct, faults.Config{})
	pass = l.tr.open("pass:faults.Transport.Send")
	wrapped := chunked(n, 500, func() { _ = ft.Send(0, env) }, drain)
	l.tr.close(pass)
	l.set("live.chan_send_ns", bare)
	l.set("faults.passthrough_ns", wrapped-bare)

	var got atomic.Int64
	addr, stop, err := live.Listen("127.0.0.1:0", func(live.Envelope) { got.Add(1) })
	if err != nil {
		return err
	}
	tt := live.NewTCPTransport()
	tt.SetAddr(1, addr)
	msgs := l.n(40_000, 500)
	pass = l.tr.open("pass:live.TCPTransport.Send")
	start := time.Now()
	for i := 0; i < msgs; i++ {
		if err := tt.Send(1, env); err != nil {
			stop()
			tt.Close()
			return fmt.Errorf("tcp send: %w", err)
		}
	}
	tt.Flush()
	for deadline := start.Add(20 * time.Second); got.Load() < int64(msgs); {
		if time.Now().After(deadline) {
			stop()
			tt.Close()
			return fmt.Errorf("tcp: %d of %d envelopes arrived", got.Load(), msgs)
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	l.tr.close(pass)
	tt.Close()
	stop()
	l.set("live.tcp_send_us_per_msg", float64(elapsed.Nanoseconds())/1e3/float64(msgs))

	var h metrics.LatencyHistogram
	obs := l.n(2_000_000, 10_000)
	pass = l.tr.open("pass:metrics.LatencyHistogram.Observe")
	start = time.Now()
	for i := 0; i < obs; i++ {
		h.Observe(time.Duration(i&1023) * time.Microsecond)
	}
	l.set("metrics.latency_observe_ns", float64(time.Since(start).Nanoseconds())/float64(obs))
	l.tr.close(pass)
	return nil
}

// engineRungs measures the flat world from the bottom up: the cascade
// on the frozen CSR and on the generic graph view, Engine.Do on top of
// it, then the two executors, and the snapshot store's publish path.
func (l *ladder) engineRungs() error {
	cfg := l.cfg
	cfg.spec, _ = cfg.plan.workload("engine-churn")
	cfg.spec.DistinctSlabs /= 4
	p := newEnginePlan(cfg)
	net := p.network()
	ctx := context.Background()

	var csr *topology.CSR
	for i := 0; i < 3; i++ {
		l.tr.call("topology.Network.Freeze", 0, -1, func() { csr = net.Freeze() })
	}
	l.set("topology.freeze_ms", float64(percentile(sortedCopy(l.tr.durations("topology.Network.Freeze")), 50))/1e6)

	n := l.n(8192, 256)
	if n > len(p.qs) {
		n = len(p.qs)
	}
	cq := func(i int) *core.Query {
		return &core.Query{ID: core.QueryID(i), Key: core.Key(p.qs[i].key), Origin: topology.NodeID(p.qs[i].origin), TTL: p.w.ttl}
	}
	checkOutcome := func(i int, out *core.Outcome) {
		l.count(out.Messages == uint64(p.ans[i].msgs) && out.Visited == int(p.ans[i].visited) &&
			sameHits(p.ans[i].hits, len(out.Results), func(k int) (int32, int32) {
				return int32(out.Results[k].Holder), int32(out.Results[k].Hops)
			}))
	}
	cascade := &core.Cascade{Graph: csr, Content: p.w, Forward: core.Flood{}}
	scratch := core.NewScratch(p.w.nodes())
	for i := 0; i < n; i++ { // the scratch grows to its high-water marks
		cascade.RunScratch(cq(i), scratch)
	}
	var msgs, visited uint64
	m0 := mallocs()
	l.serial("core.Cascade.RunScratch", n, func(i int) {
		out := cascade.RunScratch(cq(i), scratch)
		msgs += out.Messages
		visited += uint64(out.Visited)
		checkOutcome(i, out)
	})
	l.set("core.allocs_per_query", float64(mallocs()-m0)/float64(n))
	l.set("core.cascade_us_per_query", l.meanus("core.Cascade.RunScratch"))
	l.set("core.msgs_per_query", float64(msgs)/float64(n))
	l.set("core.visited_per_query", float64(visited)/float64(n))

	generic := &core.Cascade{Graph: &topology.OnlineView{Net: net}, Content: p.w, Forward: core.Flood{}}
	l.serial("core.Cascade.RunScratch/generic", n, func(i int) {
		checkOutcome(i, generic.RunScratch(cq(i), scratch))
	})
	l.set("core.generic_us_per_query", l.meanus("core.Cascade.RunScratch/generic"))

	eng, err := search.New(search.Over(csr, p.w), search.WithTTL(p.w.ttl))
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := eng.Do(ctx, p.sq[i]); err != nil {
			return err
		}
	}
	m0 = mallocs()
	l.serial("search.Engine.Do", n, func(i int) {
		res, err := eng.Do(ctx, p.sq[i])
		l.count(err == nil && equal(p.ans[i], &res))
	})
	l.set("search.do_allocs_per_query", float64(mallocs()-m0)/float64(n))
	l.set("search.do_us_per_query", l.meanus("search.Engine.Do"))

	sat, err := eng.Saturate(search.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return err
	}
	defer sat.Close()
	slabs := p.slabs()
	runSlab := func(run func(context.Context, []search.Query) ([]search.Result, error)) func(int) {
		return func(i int) {
			qs, lo := p.slabAt(i)
			rs, err := run(ctx, qs)
			if err != nil {
				l.count(false)
				return
			}
			for k := range rs {
				l.count(equal(p.ans[lo+k], &rs[k]))
			}
		}
	}
	l.serial("search.Saturator.Run/warm", 2, runSlab(sat.Run))
	pass := l.serial("search.Saturator.Run", slabs, runSlab(sat.Run))
	l.set("search.saturate_us_per_query", l.meanus("search.Saturator.Run")/float64(p.slab))
	l.notes["self:search.Saturator.Run"] = fmt.Sprintf("%v of the pass is the benchmark's own checking", l.tr.selfTime(pass))
	l.serial("search.Engine.Batch", l.n(4, 1), runSlab(eng.Batch))
	l.set("search.batch_us_per_query", l.meanus("search.Engine.Batch")/float64(p.slab))

	// The publish path: rewire epochs applied back to back.
	store := topology.NewSnapshotStore(p.network())
	epochs := p.rewireEpochs(newRand(cfg.seed, 5), cfg.spec.Churn.RewiresPerEpoch, l.n(40, 4))
	l.serial("topology.SnapshotStore.Apply", len(epochs), func(i int) { store.Apply(epochs[i]) })
	pub := sortedCopy(l.tr.durations("topology.SnapshotStore.Apply"))
	l.set("topology.publish_ms_p50", float64(percentile(pub, 50))/1e6)
	l.set("topology.publish_ms_tail", float64(percentile(pub, tailPercentile(len(pub))))/1e6)
	l.set("topology.epochs_published", float64(store.Epoch()-1))
	pins := l.n(2_000_000, 10_000)
	pass = l.tr.open("pass:topology.SnapshotStore.Acquire")
	start := time.Now()
	for i := 0; i < pins; i++ {
		store.Acquire().Release()
	}
	l.set("topology.acquire_release_ns", float64(time.Since(start).Nanoseconds())/float64(pins))
	l.tr.close(pass)
	l.set("topology.buffers", float64(store.Buffers()))
	return nil
}

// hopDelay is a deterministic stand-in for a sampled hop delay, spread
// like the simulator's access links (70 to 360 ms).
func hopDelay(i int) float64 { return 0.070 + float64((i*31)%29)/100 }

// queueRungs drives both event queues with the shape of a cascade's
// frontier: every pop schedules a few arrivals a hop delay later, until
// 512 events were pushed, then the queue drains.
func (l *ladder) queueRungs() error {
	const burst, fanout = 512, 3
	rounds := l.n(4000, 20)

	mono := eventq.NewMonotone[int32](burst)
	pass := l.tr.open("pass:eventq.Monotone")
	start := time.Now()
	events := 0
	for r := 0; r < rounds; r++ {
		mono.Reset()
		mono.Push(0, 0)
		pushed := 1
		for {
			t, _, ok := mono.Pop()
			if !ok {
				break
			}
			events++
			for k := 0; k < fanout && pushed < burst; k++ {
				mono.Push(t+hopDelay(pushed), int32(pushed))
				pushed++
			}
		}
	}
	l.set("eventq.monotone_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(events))
	l.tr.close(pass)

	heap := eventq.New()
	pass = l.tr.open("pass:eventq.Queue")
	start = time.Now()
	events = 0
	for r := 0; r < rounds; r++ {
		heap.Push(0, 0)
		pushed := 1
		for {
			it := heap.Pop()
			if it == nil {
				break
			}
			events++
			for k := 0; k < fanout && pushed < burst; k++ {
				heap.Push(it.Time+hopDelay(pushed), pushed)
				pushed++
			}
		}
	}
	l.set("eventq.queue_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(events))
	l.tr.close(pass)

	// The simulator's engine on the same shape: a thousand self-
	// rescheduling handlers.
	e := sim.New()
	total := uint64(l.n(400_000, 4000))
	var tick sim.Handler
	tick = func(e *sim.Engine) {
		if e.Processed()+uint64(e.Pending()) < total {
			e.In(hopDelay(int(e.Processed())), tick)
		}
	}
	for i := 0; i < 1000; i++ {
		e.In(hopDelay(i), tick)
	}
	pass = l.tr.open("pass:sim.Engine.Run")
	start = time.Now()
	e.Run()
	l.set("sim.events_per_s", float64(e.Processed())/time.Since(start).Seconds())
	l.tr.close(pass)
	return nil
}

// simRungs runs one round of the paper's experiments with a span
// around every cell.
func (l *ladder) simRungs() error {
	spec, _ := l.cfg.plan.workload("sim-paper")
	names := spec.Experiments
	seed := runner.DeriveSeed(l.cfg.seed, "dbench", "ladder")
	if l.cfg.smoke() {
		// One experiment's cells, timed under every experiment's name.
		seed = goldenSeed
	}
	pass := l.tr.open("pass:runner.Run")
	var cells []runner.Cell
	for _, name := range names {
		src := name
		if l.cfg.smoke() {
			src = names[0]
		}
		cs, err := paperCells([]string{src}, seed)
		if err != nil {
			return err
		}
		for _, c := range cs {
			inner := c.Run
			c.Run = func(ctx context.Context, seed uint64) (v any, err error) {
				l.tr.call("experiments.cell/"+name, pass, -1, func() { v, err = inner(ctx, seed) })
				return v, err
			}
			cells = append(cells, c)
		}
	}
	start := time.Now()
	rs, err := runner.Run(context.Background(), cells, runner.Options{Workers: 1})
	wall := time.Since(start)
	l.tr.close(pass)
	if err != nil {
		return err
	}
	l.count(runner.FirstError(rs) == nil)
	inCells := 0.0
	for _, name := range names {
		ds := l.tr.durations("experiments.cell/" + name)
		l.set("experiments.cell_ms."+name, l.meanus("experiments.cell/"+name)/1e3)
		for _, d := range ds {
			inCells += float64(d) / 1e6
		}
	}
	l.set("runner.overhead_ms", float64(wall.Nanoseconds())/1e6-inCells)
	return nil
}
