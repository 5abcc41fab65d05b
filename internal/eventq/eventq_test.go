package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := New()
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue must return nil")
	}
	if q.Peek() != nil {
		t.Fatal("Peek on empty queue must return nil")
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

func TestPeekDoesNotRemove(t *testing.T) {
	q := New()
	q.Push(1, "a")
	if q.Peek().Value != "a" || q.Len() != 1 {
		t.Fatal("Peek modified the queue")
	}
}

func TestCancel(t *testing.T) {
	q := New()
	a := q.Push(1, "a")
	b := q.Push(2, "b")
	c := q.Push(3, "c")
	if !q.Cancel(b) {
		t.Fatal("Cancel of pending item returned false")
	}
	if q.Cancel(b) {
		t.Fatal("double Cancel returned true")
	}
	if got := q.Pop(); got != a {
		t.Fatalf("got %v, want a", got.Value)
	}
	if got := q.Pop(); got != c {
		t.Fatalf("got %v, want c", got.Value)
	}
	if q.Pop() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestCancelPopped(t *testing.T) {
	q := New()
	a := q.Push(1, "a")
	q.Pop()
	if q.Cancel(a) {
		t.Fatal("Cancel of popped item returned true")
	}
}

func TestCancelNil(t *testing.T) {
	if New().Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestRandomizedHeapProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	q := New()
	var live []*Item
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 5: // push
			live = append(live, q.Push(r.Float64()*1000, step))
		case op < 7 && len(live) > 0: // cancel random
			i := r.Intn(len(live))
			q.Cancel(live[i])
			live = append(live[:i], live[i+1:]...)
		default: // pop
			it := q.Pop()
			if it == nil {
				continue
			}
			for i, l := range live {
				if l == it {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
	}
	// Drain and verify total order.
	prev := -1.0
	for {
		it := q.Pop()
		if it == nil {
			break
		}
		if it.Time < prev {
			t.Fatalf("heap order violated: %v after %v", it.Time, prev)
		}
		prev = it.Time
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
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLenMatchesPushPop(t *testing.T) {
	f := func(times []float64, cancels uint8) bool {
		q := New()
		items := make([]*Item, 0, len(times))
		for _, tm := range times {
			items = append(items, q.Push(tm, nil))
		}
		n := len(times)
		for i := 0; i < int(cancels) && i < len(items); i++ {
			if q.Cancel(items[i]) {
				n--
			}
		}
		got := 0
		for q.Pop() != nil {
			got++
		}
		return got == n
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
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}
