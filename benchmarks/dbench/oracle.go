package main

// The oracle is a plain breadth-first flood written against the
// benchmark's own adjacency lists. It shares no code with the program:
// no event queue, no scratch, no CSR.
//
// Semantics, common to the engine's flood and the live protocol:
//   - the origin sends to every neighbour and never checks its own store
//     (the cascade marks it visited without a content check; a live node
//     floods without a local lookup);
//   - a node processes the query once, on its first copy;
//   - a holder answers and does not forward;
//   - a node reached at exactly TTL hops does not forward (hop-exact TTL);
//   - a forwarding node sends to every neighbour except the one the copy
//     came from and the origin, and every copy sent is a message, also
//     the duplicates dropped on arrival.
//
// On a zero-delay flood copies arrive in hop order, so a node's first
// copy is a shortest one and the answer is a property of the graph; the
// engine workloads compare it field by field. The live runtime is
// first-copy-wins on real goroutines: a relay whose first copy took a
// longer route may run out of hops, so the oracle's verdict there is
// certain only for holders one hop out and for misses (see rest.go).

// hit is one holder the flood reaches, with its hop distance.
type hit struct {
	holder, hops int32
}

// answer is everything the flood of one query produces.
type answer struct {
	hits          []hit
	msgs, visited int32
}

func (a answer) found() bool { return len(a.hits) > 0 }

// nearest returns the smallest hop distance among the hits, 0 if none.
func (a answer) nearest() int32 {
	best := int32(0)
	for _, h := range a.hits {
		if best == 0 || h.hops < best {
			best = h.hops
		}
	}
	return best
}

// flooder holds the reusable working memory of the oracle over one
// adjacency: anything that lists a node's neighbours; a list is read
// to its end before the next one is asked for.
type flooder struct {
	out   func(node int32) []int32
	holds func(node int32, key uint32) bool
	ttl   int32

	stamp  []uint32
	epoch  uint32
	parent []int32
	hops   []int32
	queue  []int32
}

func newFlooder(nodes int, ttl int, out func(int32) []int32, holds func(int32, uint32) bool) *flooder {
	return &flooder{
		out: out, holds: holds, ttl: int32(ttl),
		stamp: make([]uint32, nodes), parent: make([]int32, nodes), hops: make([]int32, nodes),
	}
}

func (w *world) flooder() *flooder {
	return newFlooder(w.nodes(), w.ttl,
		func(n int32) []int32 { return w.adj[n] },
		func(n int32, k uint32) bool { return w.holds(int(n), k) })
}

func (f *flooder) flood(q query) answer {
	f.epoch++
	var a answer
	f.stamp[q.origin] = f.epoch
	f.queue = f.queue[:0]
	for _, n := range f.out(q.origin) {
		a.msgs++
		if f.stamp[n] != f.epoch {
			f.stamp[n] = f.epoch
			f.parent[n], f.hops[n] = q.origin, 1
			f.queue = append(f.queue, n)
		}
	}
	for head := 0; head < len(f.queue); head++ {
		at := f.queue[head]
		a.visited++
		if f.holds(at, q.key) {
			a.hits = append(a.hits, hit{holder: at, hops: f.hops[at]})
			continue
		}
		if f.hops[at] >= f.ttl {
			continue
		}
		for _, n := range f.out(at) {
			if n == f.parent[at] || n == q.origin {
				continue
			}
			a.msgs++
			if f.stamp[n] != f.epoch {
				f.stamp[n] = f.epoch
				f.parent[n], f.hops[n] = at, f.hops[at]+1
				f.queue = append(f.queue, n)
			}
		}
	}
	return a
}

// sameHits reports whether got (holder, hops) pairs equal the oracle's
// as a set; hit lists are a handful long.
func sameHits(want []hit, n int, got func(i int) (holder, hops int32)) bool {
	if len(want) != n {
		return false
	}
next:
	for i := 0; i < n; i++ {
		holder, hops := got(i)
		for _, h := range want {
			if h.holder == holder && h.hops == hops {
				continue next
			}
		}
		return false
	}
	return true
}
