package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	if New().Pop() != nil {
		t.Fatal("Pop on empty queue must return nil")
	}
}

func TestOrdering(t *testing.T) {
	q := New()
	times := []float64{5, 1, 3, 2, 4, 0.5, 2.5}
	for _, tm := range times {
		q.Push(tm, tm)
	}
	sort.Float64s(times)
	for i, want := range times {
		it := q.Pop()
		if it == nil || it.Time != want {
			t.Fatalf("pop %d: got %v, want %v", i, it, want)
		}
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	q := New()
	for i := 0; i < 100; i++ {
		q.Push(1.0, i)
	}
	for i := 0; i < 100; i++ {
		it := q.Pop()
		if it.Value.(int) != i {
			t.Fatalf("tie broken out of insertion order: got %v at pop %d", it.Value, i)
		}
	}
}

func TestRandomizedHeapProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	q := New()
	pending := 0
	prev := -1.0 // pushes land at or after the last pop, as on a timeline
	for step := 0; step < 20000; step++ {
		if r.Intn(10) < 6 {
			q.Push(math.Max(prev, 0)+r.Float64()*1000, step)
			pending++
			continue
		}
		it := q.Pop()
		if it == nil {
			continue
		}
		if it.Time < prev {
			t.Fatalf("heap order violated: %v after %v", it.Time, prev)
		}
		prev = it.Time
		pending--
	}
	// Drain and verify total order.
	for {
		it := q.Pop()
		if it == nil {
			break
		}
		if it.Time < prev {
			t.Fatalf("heap order violated: %v after %v", it.Time, prev)
		}
		prev = it.Time
		pending--
	}
	if pending != 0 {
		t.Fatalf("%d pushed items never popped", pending)
	}
}

func TestQuickDrainIsSorted(t *testing.T) {
	f := func(times []float64) bool {
		q := New()
		for _, tm := range times {
			q.Push(tm, nil)
		}
		prev := 0.0
		first := true
		for {
			it := q.Pop()
			if it == nil {
				break
			}
			if !first && it.Time < prev {
				return false
			}
			prev, first = it.Time, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLenMatchesPushPop(t *testing.T) {
	f := func(times []float64) bool {
		q := New()
		for _, tm := range times {
			q.Push(tm, nil)
		}
		got := 0
		for q.Pop() != nil {
			got++
		}
		return got == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		q.Push(r.Float64(), nil)
		if i >= 1024 {
			q.Pop()
		}
	}
}
