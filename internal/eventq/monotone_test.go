package eventq

import (
	"math"
	"sort"
	"testing"
)

// refQueue is the trusted oracle: the existing indexed binary heap.
type refQueue struct{ q *Queue }

func (r *refQueue) push(t float64, v int) { r.q.Push(t, v) }
func (r *refQueue) pop() (float64, int, bool) {
	it := r.q.Pop()
	if it == nil {
		return 0, 0, false
	}
	return it.Time, it.Value.(int), true
}

// lcg is a tiny deterministic generator so the tests need no seeding
// policy from the rng package.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *lcg) float() float64 { // in [0, 1)
	return float64(g.next()>>11) / (1 << 53)
}

// delayModels are the distributions a cascade might sample hop delays
// from; every one must produce byte-identical pop sequences between
// Monotone and the reference heap.
var delayModels = map[string]func(g *lcg) float64{
	"zero":     func(*lcg) float64 { return 0 },
	"constant": func(*lcg) float64 { return 0.125 },
	"netsim":   func(g *lcg) float64 { return 0.070 + 0.280*g.float() },
	"tiny-spread": func(g *lcg) float64 {
		return 0.1 + 1e-9*g.float() // near-identical delays
	},
	"heavy-tail": func(g *lcg) float64 {
		d := 0.01 + 0.04*g.float()
		if g.next()%64 == 0 {
			d *= 1e5 // occasional enormous delay
		}
		return d
	},
	"micro": func(g *lcg) float64 { return 1e-7 * g.float() },
	// A spread wide enough that inversions keep coming once the frontier
	// has outgrown runInsertMax — the run → heap hand-off — with the odd
	// copy that never arrives.
	"wide-frontier": func(g *lcg) float64 {
		if g.next()%128 == 0 {
			return math.Inf(1)
		}
		return 10 * g.float()
	},
}

// driveCascade emulates the cascade's push/pop pattern: a seed burst,
// then each pop triggers a random fan-out of pushes at now + delay.
// It returns the pop sequence (time, payload) of the queue under test.
func driveCascade(t *testing.T, push func(float64, int), pop func() (float64, int, bool),
	seed uint64, delay func(*lcg) float64, events int) (times []float64, vals []int) {
	t.Helper()
	g := lcg(seed)
	n := 0
	for i := 0; i < 4; i++ {
		push(delay(&g), n)
		n++
	}
	for {
		tm, v, ok := pop()
		if !ok {
			break
		}
		times = append(times, tm)
		vals = append(vals, v)
		if n < events {
			fan := int(g.next() % 4)
			for i := 0; i < fan && n < events; i++ {
				push(tm+delay(&g), n)
				n++
			}
		}
	}
	return times, vals
}

// TestMonotoneMatchesHeapOrder: under every delay model, Monotone pops
// the exact sequence the reference binary heap does — from the run
// alone where pushes arrive in order, across the hand-off to the heap
// where they do not.
func TestMonotoneMatchesHeapOrder(t *testing.T) {
	for name, delay := range delayModels {
		t.Run(name, func(t *testing.T) {
			handoffs := 0
			for seed := uint64(1); seed <= 20; seed++ {
				m := NewMonotone[int](0)
				ref := &refQueue{q: New()}
				mt, mv := driveCascade(t, m.Push, m.Pop, seed, delay, 500)
				rt, rv := driveCascade(t, func(tm float64, v int) { ref.push(tm, v) }, ref.pop, seed, delay, 500)
				if len(mt) != len(rt) {
					t.Fatalf("seed %d: %d pops vs %d reference pops", seed, len(mt), len(rt))
				}
				for i := range mt {
					if mt[i] != rt[i] || mv[i] != rv[i] {
						t.Fatalf("seed %d pop %d: (%v, %d) vs reference (%v, %d) [heaped %v]",
							seed, i, mt[i], mv[i], rt[i], rv[i], m.heaped)
					}
				}
				if m.heaped {
					handoffs++
				}
			}
			if inOrder := name == "zero" || name == "constant"; inOrder && handoffs > 0 {
				t.Errorf("in-order pushes left the run on %d seeds", handoffs)
			}
			if name == "wide-frontier" && handoffs == 0 {
				t.Error("no seed reached the run → heap hand-off")
			}
		})
	}
}

// TestMonotoneReuseMatchesFresh: a Reset queue reproduces a fresh
// queue's pop sequence exactly — the pooling contract core.Scratch
// relies on.
func TestMonotoneReuseMatchesFresh(t *testing.T) {
	reused := NewMonotone[int](0)
	for name, delay := range delayModels {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				fresh := NewMonotone[int](0)
				reused.Reset()
				ft, fv := driveCascade(t, fresh.Push, fresh.Pop, seed, delay, 300)
				rt, rv := driveCascade(t, reused.Push, reused.Pop, seed, delay, 300)
				if len(ft) != len(rt) {
					t.Fatalf("seed %d: fresh %d pops, reused %d", seed, len(ft), len(rt))
				}
				for i := range ft {
					if ft[i] != rt[i] || fv[i] != rv[i] {
						t.Fatalf("seed %d pop %d: reused queue diverged", seed, i)
					}
				}
			}
		})
	}
}

// TestMonotoneModes pins the representation hand-off: sorted (and
// small out-of-order) pushes stay in the run, a large-frontier inversion
// moves to the heap, and a Reset returns to the run — with the pop order
// exact throughout, ±Inf times included.
func TestMonotoneModes(t *testing.T) {
	q := NewMonotone[int](0)
	type entry struct {
		t float64
		v int
	}
	var want []entry
	push := func(tm float64, v int) {
		q.Push(tm, v)
		want = append(want, entry{tm, v})
	}
	push(1, 0)
	push(2, 1)
	push(2, 2)   // ties append
	push(1.5, 3) // small-frontier inversion: binary insert, still the run
	if q.heaped {
		t.Fatal("small inversion left the run")
	}
	if tm, v, _ := q.Pop(); tm != 1 || v != 0 { // the hand-off must slide a popped head away
		t.Fatalf("first pop = (%v, %d), want (1, 0)", tm, v)
	}
	want = want[1:]
	// Grow the pending set beyond the run-insert bound, then invert.
	v := 4
	for ; v < 4+runInsertMax; v++ {
		push(3+float64(v)/1000, v)
	}
	if q.heaped {
		t.Fatal("in-order pushes left the run")
	}
	push(2.5, v)
	v++
	if !q.heaped {
		t.Fatal("large-frontier inversion did not move to the heap")
	}
	push(math.Inf(1), v)
	push(1e9, v+1)
	push(math.Inf(-1), v+2)
	push(math.Inf(1), v+3)
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	if n := len(q.items) - q.head; n != len(want) {
		t.Fatalf("%d pending, want %d", n, len(want))
	}
	for i, w := range want {
		tm, got, ok := q.Pop()
		if !ok || tm != w.t || got != w.v {
			t.Fatalf("pop %d = (%v, %v, %v), want (%v, %d, true)", i, tm, got, ok, w.t, w.v)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue reported ok")
	}
	q.Reset()
	if q.heaped {
		t.Fatal("Reset did not return to the run")
	}
}

// TestMonotoneNaNDegrades: a NaN time has no place in the order, but it
// must not cost the queue an item or an index: pushed into the run, at
// the hand-off and into the heap, every value still pops exactly once.
func TestMonotoneNaNDegrades(t *testing.T) {
	q := NewMonotone[int](0)
	q.Push(math.NaN(), -1) // into the run
	for v := 0; v <= runInsertMax; v++ {
		q.Push(2+float64(v)/1000, v)
	}
	q.Push(math.NaN(), -2) // large-frontier, unordered: the hand-off itself
	if !q.heaped {
		t.Fatal("NaN push at a large frontier left the run")
	}
	q.Push(1, -3)
	q.Push(math.NaN(), -4) // into the heap
	if n := len(q.items) - q.head; n != runInsertMax+5 {
		t.Fatalf("%d pending, want %d", n, runInsertMax+5)
	}
	seen := map[int]bool{}
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != runInsertMax+5 {
		t.Fatalf("%d distinct values popped, want %d", len(seen), runInsertMax+5)
	}
}

// TestMonotoneGrow: pre-sizing keeps the first run allocation-free and
// does not disturb pending items.
func TestMonotoneGrow(t *testing.T) {
	q := NewMonotone[int](64)
	if cap(q.items) < 64 {
		t.Fatalf("hint ignored: cap %d", cap(q.items))
	}
	q.Push(1, 1)
	q.Grow(128)
	if tm, v, ok := q.Pop(); !ok || tm != 1 || v != 1 {
		t.Fatalf("Grow lost the pending item: (%v, %d, %v)", tm, v, ok)
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Reset()
		for i := 0; i < 64; i++ {
			q.Push(float64(i), i)
		}
		for {
			if _, _, ok := q.Pop(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("sorted-run cycle allocated %.1f times per run, want 0", allocs)
	}
}
