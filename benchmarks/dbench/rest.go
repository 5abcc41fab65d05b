package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/pkg/searchclient"
)

// restWorld is the parity world with the oracle's answer to every
// (origin, key) pair — the world is small enough to enumerate.
type restWorld struct {
	spec worldSpec
	w    *world
	ans  []answer // indexed origin*keys + key
}

func newRestWorld(spec worldSpec) *restWorld {
	rw := &restWorld{spec: spec, w: parityWorld(spec)}
	f := rw.w.flooder()
	rw.ans = make([]answer, spec.Nodes*spec.Keys)
	for o := 0; o < spec.Nodes; o++ {
		for k := 0; k < spec.Keys; k++ {
			rw.ans[o*spec.Keys+k] = f.flood(query{origin: int32(o), key: uint32(k)})
		}
	}
	return rw
}

func (rw *restWorld) answer(q query) answer {
	return rw.ans[int(q.origin)*rw.spec.Keys+int(q.key)]
}

// certainHits keeps the queries whose nearest replica is a direct
// neighbour of the origin: the origin always sends to every neighbour
// and a node's first copy always gets its store check, so these hit
// whatever the goroutine schedule.
func (rw *restWorld) certainHits(qs []query) []query {
	var out []query
	for _, q := range qs {
		if rw.answer(q).nearest() == 1 {
			out = append(out, q)
		}
	}
	return out
}

// spreadMisses reorders qs so that the oracle's misses are spaced
// evenly among the hits. A miss costs a whole query window, two
// hundred times a hit; left where a shuffle puts them, the number of
// misses in the part of the plan a run gets through would vary by a
// tenth from seed to seed and the throughput with it.
func (rw *restWorld) spreadMisses(qs []query) []query {
	var hits, misses []query
	for _, q := range qs {
		if rw.answer(q).found() {
			hits = append(hits, q)
		} else {
			misses = append(misses, q)
		}
	}
	out := make([]query, 0, len(qs))
	n, m := len(qs), len(misses)
	for i := 0; i < n; i++ {
		if (i+1)*m/n > i*m/n {
			out, misses = append(out, misses[0]), misses[1:]
		} else {
			out, hits = append(out, hits[0]), hits[1:]
		}
	}
	return out
}

// requests turns plan entries into wire requests.
func requests(qs []query, maxHits int) []searchclient.QueryRequest {
	origins := make([]int, len(qs))
	reqs := make([]searchclient.QueryRequest, len(qs))
	for i, q := range qs {
		origins[i] = int(q.origin)
		reqs[i] = searchclient.QueryRequest{Key: uint64(q.key), Origin: &origins[i], MaxHits: maxHits}
	}
	return reqs
}

// checkResponse compares one REST answer with the oracle. A hit must
// name a holder the flood can reach, at no fewer hops than the oracle's
// shortest route and no more than the TTL.
func (rw *restWorld) checkResponse(q query, resp *searchclient.QueryResponse) bool {
	want := rw.answer(q)
	if resp.Origin != int(q.origin) || resp.Found() != want.found() {
		return false
	}
	for _, h := range resp.Hits {
		ok := false
		for _, wh := range want.hits {
			if int(wh.holder) == h.Holder && h.Hops >= int(wh.hops) && h.Hops <= rw.spec.TTL {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// restServer is one booted daemon with a connected client.
type restServer struct {
	srv    *daemon.Server
	client *searchclient.Client
}

// bootRest starts the in-process chan-transport daemon over the parity
// world with its default configuration and waits until it admits
// queries.
func bootRest(spec worldSpec) (*restServer, error) {
	srv, err := daemon.New(daemon.Config{
		Nodes: spec.Nodes, Degree: spec.Degree, TTL: spec.TTL,
		Keys: spec.Keys, Replicas: spec.Replicas, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	rs := &restServer{srv: srv, client: searchclient.New(srv.Addr())}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for rs.client.Ready(ctx) != nil {
		if ctx.Err() != nil {
			rs.stop()
			return nil, fmt.Errorf("daemon at %s never became ready", srv.Addr())
		}
		time.Sleep(time.Millisecond)
	}
	return rs, nil
}

func (rs *restServer) stop() {
	_ = rs.srv.Drain(context.Background())
}

// single issues one query and checks it.
func (rs *restServer) single(rw *restWorld, q query, req searchclient.QueryRequest) opResult {
	resp, err := rs.client.Query(context.Background(), req)
	switch {
	case err != nil:
		return opResult{attempted: 1, failed: 1, inexact: 1, checked: 1}
	case !rw.checkResponse(q, resp):
		return opResult{attempted: 1, inexact: 1, checked: 1}
	}
	return opResult{attempted: 1, checked: 1}
}

// batch issues one slab and checks every item of it.
func (rs *restServer) batch(rw *restWorld, qs []query, reqs []searchclient.QueryRequest) opResult {
	r := opResult{attempted: len(qs), checked: len(qs)}
	resp, err := rs.client.QueryBatch(context.Background(), reqs)
	if err != nil {
		r.failed, r.inexact = len(qs), len(qs)
		return r
	}
	for i := range resp.Results {
		it := &resp.Results[i]
		switch {
		case !it.OK():
			r.failed++
			r.inexact++
		case !rw.checkResponse(qs[i], &it.QueryResponse):
			r.inexact++
		}
	}
	return r
}

// runRest runs rest-hit, rest-lookup or rest-batch.
func runRest(cfg runConfig) (phase, []float64, error) {
	spec := cfg.plan.Worlds[cfg.spec.World]
	rw := newRestWorld(spec)
	pairs := rw.w.allPairs(newRand(cfg.seed, 3))
	certain := rw.certainHits(pairs)
	var plan []query
	switch cfg.spec.Select {
	case "certain-hits":
		plan = certain
	case "uniform":
		plan = rw.spreadMisses(pairs)
	default:
		return phase{}, nil, fmt.Errorf("unknown select %q", cfg.spec.Select)
	}
	reqs := requests(plan, cfg.spec.MaxHits)
	warmReqs := requests(certain, cfg.spec.MaxHits)
	slab := cfg.spec.Slab
	clients := cfg.clients()
	cfg.logf("plan %d queries (%d certain hits in the world), %d client(s), closed loop", len(plan), len(certain), clients)

	// Set-up: boot, connect, and a fixed warm-up pass of certain hits
	// (no window ever fires in it, so it times the program and not
	// timers), through the same call the workload uses.
	warmOps := cfg.scaled(cfg.spec.WarmupOps, 64)
	setup := func() (*restServer, error) {
		rs, err := bootRest(spec)
		if err != nil {
			return nil, err
		}
		bad := 0
		if slab > 0 {
			for lo := 0; lo < warmOps; lo += slab {
				qs, rq := cycle(certain, lo, slab), cycle(warmReqs, lo, slab)
				bad += rs.batch(rw, qs, rq).inexact
			}
		} else {
			ph := closedLoopN(clients, warmOps, func(_, i int) opResult {
				return rs.single(rw, certain[i%len(certain)], warmReqs[i%len(warmReqs)])
			})
			bad = int(ph.inexact)
		}
		if bad > 0 {
			rs.stop()
			return nil, fmt.Errorf("warm-up: %d certain hits came back wrong", bad)
		}
		return rs, nil
	}
	setups, rs, err := repeatSetup(cfg.setupRepeats(), setup, (*restServer).stop)
	if err != nil {
		return phase{}, nil, err
	}
	defer rs.stop()

	d := time.Duration(cfg.seconds * float64(time.Second))
	var ph phase
	if slab > 0 {
		ph = closedLoop(1, d, slab, func(_, i int) opResult {
			return rs.batch(rw, cycle(plan, i*slab, slab), cycle(reqs, i*slab, slab))
		})
	} else {
		ph = closedLoop(clients, d, 1, func(_, i int) opResult {
			return rs.single(rw, plan[i%len(plan)], reqs[i%len(reqs)])
		})
	}
	return ph, setups, nil
}

// cycle returns n consecutive entries of xs starting at lo, wrapping
// around.
func cycle[T any](xs []T, lo, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = xs[(lo+i)%len(xs)]
	}
	return out
}
