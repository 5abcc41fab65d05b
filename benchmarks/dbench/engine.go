package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/pkg/search"
)

// enginePlan is the flat world with the slabs the engine workloads
// cycle through and the oracle's answer to every query of them.
type enginePlan struct {
	w     *world
	slab  int
	qs    []query        // distinct_slabs × slab queries
	sq    []search.Query // the same, as the engine takes them
	ans   []answer       // the oracle's answers over the build-time graph
	edges [][2]int32     // every undirected edge once, in wiring order
}

func newEnginePlan(cfg runConfig) *enginePlan {
	spec := cfg.plan.Worlds[cfg.spec.World]
	w := buildFlatWorld(spec, cfg.scaled(spec.Nodes, 1000))
	p := &enginePlan{w: w, slab: cfg.spec.Slab}
	for a, nbs := range w.adj {
		for _, b := range nbs {
			if int(b) > a {
				p.edges = append(p.edges, [2]int32{int32(a), b})
			}
		}
	}
	p.qs = w.uniformQueries(newRand(cfg.seed, 4), cfg.scaled(cfg.spec.DistinctSlabs, 2)*p.slab)
	p.sq = make([]search.Query, len(p.qs))
	p.ans = make([]answer, len(p.qs))
	f := w.flooder()
	for i, q := range p.qs {
		p.sq[i] = search.Query{ID: uint64(i), Key: core.Key(q.key), Origin: topology.NodeID(q.origin)}
		p.ans[i] = f.flood(q)
	}
	return p
}

func (p *enginePlan) slabs() int { return len(p.qs) / p.slab }

// slabAt returns the i-th slab of the cyclic plan and the index of its
// first query.
func (p *enginePlan) slabAt(i int) ([]search.Query, int) {
	lo := (i % p.slabs()) * p.slab
	return p.sq[lo : lo+p.slab], lo
}

// network builds the program's mutable network from the world's edges.
func (p *enginePlan) network() *topology.Network {
	net := topology.NewNetwork(topology.Symmetric, p.w.nodes(), 0, 0)
	for _, e := range p.edges {
		net.Connect(topology.NodeID(e[0]), topology.NodeID(e[1]))
	}
	return net
}

// equal compares one engine result with an oracle answer field by field.
func equal(want answer, got *search.Result) bool {
	return got.Messages == uint64(want.msgs) && got.Visited == int(want.visited) &&
		sameHits(want.hits, len(got.Hits), func(i int) (int32, int32) {
			return int32(got.Hits[i].Holder), int32(got.Hits[i].Hops)
		})
}

// engineServer is one built engine in saturation mode.
type engineServer struct {
	eng   *search.Engine
	sat   *search.Saturator
	store *topology.SnapshotStore // nil without churn
}

func (es *engineServer) stop() { es.sat.Close() }

// buildEngine is the engine workloads' program set-up: wire the
// network, freeze it (into a CSR, or into a snapshot store's first
// epoch), build the engine, start the saturator.
func (p *enginePlan) buildEngine(churn bool, workers int) (*engineServer, error) {
	net := p.network()
	es := &engineServer{}
	var err error
	if churn {
		es.store = topology.NewSnapshotStore(net)
		es.eng, err = search.New(search.OverContent(p.w),
			search.WithSnapshotStore(es.store), search.WithTTL(p.w.ttl))
	} else {
		es.eng, err = search.New(search.Over(net.Freeze(), p.w), search.WithTTL(p.w.ttl))
	}
	if err != nil {
		return nil, err
	}
	es.sat, err = es.eng.Saturate(search.WithWorkers(workers))
	return es, err
}

// epochSample is one snapshot the churn workload kept for checking: the
// graph as the readers of that epoch saw it, and the answers given on it.
type epochSample struct {
	epoch uint64
	graph *topology.CSR
	idx   []int           // plan index of each kept answer
	got   []search.Result // the answers, hits copied
}

// runEngine runs engine-saturate or engine-churn.
func runEngine(cfg runConfig) (phase, []float64, map[string]string, error) {
	p := newEnginePlan(cfg)
	churn := cfg.spec.Churn
	workers := runtime.NumCPU()
	notes := map[string]string{}
	cfg.logf("world %d nodes %d edges, %d distinct slabs of %d, %d saturator worker(s), 1 driver, closed loop",
		p.w.nodes(), len(p.edges), p.slabs(), p.slab, workers)

	ctx := context.Background()
	warmSlabs := cfg.scaled(cfg.spec.WarmupOps, p.slab) / p.slab
	setup := func() (*engineServer, error) {
		es, err := p.buildEngine(churn != nil, workers)
		if err != nil {
			return nil, err
		}
		for i := 0; i < warmSlabs; i++ {
			qs, lo := p.slabAt(i)
			rs, err := es.sat.Run(ctx, qs)
			if err != nil {
				es.stop()
				return nil, err
			}
			for k := range rs {
				if !equal(p.ans[lo+k], &rs[k]) {
					es.stop()
					return nil, fmt.Errorf("warm-up: query %d differs from the oracle", lo+k)
				}
			}
		}
		return es, nil
	}
	setups, es, err := repeatSetup(cfg.setupRepeats(), setup, (*engineServer).stop)
	if err != nil {
		return phase{}, nil, nil, err
	}
	defer es.stop()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if churn == nil {
		ph := closedLoop(1, d, p.slab, func(_, i int) opResult {
			qs, lo := p.slabAt(i)
			r := opResult{attempted: len(qs), checked: len(qs)}
			rs, err := es.sat.Run(ctx, qs)
			if err != nil {
				r.failed, r.inexact = len(qs), len(qs)
				return r
			}
			for k := range rs {
				if !equal(p.ans[lo+k], &rs[k]) {
					r.inexact++
				}
			}
			return r
		})
		return ph, setups, notes, nil
	}

	// Churn: one writer applies a pre-generated rewire epoch every
	// period while the driver keeps the saturator busy. An answer is
	// only checkable against the graph of the epoch that served it, so
	// the driver clones the pinned snapshot a few times during the run
	// and keeps the answers that report that epoch; they are checked
	// after the clock stops.
	epochs := p.rewireEpochs(newRand(cfg.seed, 5), churn.RewiresPerEpoch,
		int(cfg.seconds*1000)/churn.PeriodMillis+8)
	stopWriter := make(chan struct{})
	var writer sync.WaitGroup
	published := 0
	writer.Add(1)
	go func() {
		defer writer.Done()
		tick := time.NewTicker(time.Duration(churn.PeriodMillis) * time.Millisecond)
		defer tick.Stop()
		for _, deltas := range epochs {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
				es.store.Apply(deltas)
				published++
			}
		}
	}()

	var samples []*epochSample
	sampleEvery := d / time.Duration(churn.SampledEpochs)
	start := time.Now()
	ph := closedLoop(1, d, p.slab, func(_, i int) opResult {
		if due := time.Duration(len(samples)) * sampleEvery; time.Since(start) >= due && len(samples) < churn.SampledEpochs {
			pin := es.store.Acquire()
			samples = append(samples, &epochSample{epoch: pin.Epoch(), graph: pin.Graph().Clone()})
			pin.Release()
		}
		qs, lo := p.slabAt(i)
		r := opResult{attempted: len(qs)}
		rs, err := es.sat.Run(ctx, qs)
		if err != nil {
			r.failed = len(qs)
			return r
		}
		if len(samples) > 0 {
			s := samples[len(samples)-1]
			for k := range rs {
				if rs[k].Epoch == s.epoch {
					s.idx = append(s.idx, lo+k)
					s.got = append(s.got, rs[k])
				}
			}
		}
		return r
	})
	close(stopWriter)
	writer.Wait()

	usable := 0
	for _, s := range samples {
		if len(s.idx) == 0 {
			continue
		}
		usable++
		var nbs []int32 // the flooder is done with one list before it asks for the next
		f := newFlooder(s.graph.Len(), p.w.ttl,
			func(n int32) []int32 {
				nbs = nbs[:0]
				for _, id := range s.graph.Out(topology.NodeID(n)) {
					nbs = append(nbs, int32(id))
				}
				return nbs
			},
			func(n int32, k uint32) bool { return p.w.holds(int(n), k) })
		for j, qi := range s.idx {
			ph.checked++
			if !equal(f.flood(p.qs[qi]), &s.got[j]) {
				ph.inexact++
			}
		}
	}
	ph.checked += ph.failed
	ph.inexact += ph.failed
	notes["churn"] = fmt.Sprintf("%d epochs published, %d of %d sampled epochs served answers that were kept",
		published, usable, len(samples))
	if usable < 5 && !cfg.smoke() {
		return ph, setups, notes, fmt.Errorf("only %d sampled epochs had answers to check, want at least 5", usable)
	}
	return ph, setups, notes, nil
}

// rewireEpochs generates n epochs of rewires rewirings each over a
// private copy of the adjacency, so that every delta is valid when its
// turn comes: drop a random edge of a random node, attach the node to a
// random stranger instead.
func (p *enginePlan) rewireEpochs(r *rand.Rand, rewires, n int) [][]topology.Delta {
	adj := make([][]int32, len(p.w.adj))
	for i, nbs := range p.w.adj {
		adj[i] = append([]int32(nil), nbs...)
	}
	mirror := &world{adj: adj}
	unlink := func(a, b int32) {
		for i, v := range adj[a] {
			if v == b {
				adj[a] = append(adj[a][:i], adj[a][i+1:]...)
				return
			}
		}
	}
	epochs := make([][]topology.Delta, n)
	for e := range epochs {
		for len(epochs[e]) < 2*rewires {
			src := int32(r.IntN(len(adj)))
			fresh := int32(r.IntN(len(adj)))
			if len(adj[src]) == 0 || fresh == src || mirror.connected(int(src), int(fresh)) {
				continue
			}
			old := adj[src][r.IntN(len(adj[src]))]
			unlink(src, old)
			unlink(old, src)
			adj[src] = append(adj[src], fresh)
			adj[fresh] = append(adj[fresh], src)
			rw := topology.Rewire(topology.NodeID(src), topology.NodeID(old), topology.NodeID(fresh))
			epochs[e] = append(epochs[e], rw[0], rw[1])
		}
	}
	return epochs
}
