package lru

import (
	"testing"
	"testing/quick"

	"repro/internal/digest"
)

func TestLRUBasics(t *testing.T) {
	c := New(2)
	if len(c.items) != 0 || c.capacity != 2 {
		t.Fatal("new LRU wrong")
	}
	if !c.Put(1) || !c.Put(2) {
		t.Fatal("fresh puts must report insertion")
	}
	if c.Put(1) {
		t.Fatal("re-put must not report insertion")
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("membership wrong")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := New(2)
	c.Put(1)
	c.Put(2)
	c.Put(3) // evicts 1
	if c.Contains(1) {
		t.Fatal("LRU entry not evicted")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Fatal("wrong entry evicted")
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := New(2)
	c.Put(1)
	c.Put(2)
	if !c.Get(1) { // 1 becomes MRU
		t.Fatal("Get missed present key")
	}
	c.Put(3) // evicts 2, not 1
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("Get did not refresh recency")
	}
}

func TestLRUPutRefreshesRecency(t *testing.T) {
	c := New(2)
	c.Put(1)
	c.Put(2)
	c.Put(1) // refresh
	c.Put(3) // evicts 2
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("Put did not refresh recency")
	}
}

func TestLRUContainsDoesNotRefresh(t *testing.T) {
	c := New(2)
	c.Put(1)
	c.Put(2)
	c.Contains(1) // must NOT refresh
	c.Put(3)      // evicts 1
	if c.Contains(1) {
		t.Fatal("Contains refreshed recency")
	}
}

func TestLRUGetMiss(t *testing.T) {
	if New(1).Get(42) {
		t.Fatal("Get on empty hit")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := New(3)
	c.Put(1)
	c.Put(2)
	c.Put(3)
	c.Get(1)
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 2 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestLRUSingleCapacity(t *testing.T) {
	c := New(1)
	c.Put(1)
	c.Put(2)
	if c.Contains(1) || !c.Contains(2) || len(c.items) != 1 {
		t.Fatal("capacity-1 LRU wrong")
	}
}

func TestLRUZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	New(0)
}

// Property: the size never exceeds capacity and a just-inserted key is
// always present.
func TestQuickLRUInvariants(t *testing.T) {
	f := func(keys []uint16, capacity uint8) bool {
		capN := int(capacity)%16 + 1
		c := New(capN)
		for _, k := range keys {
			c.Put(digest.Key(k))
			if len(c.items) > capN {
				return false
			}
			if !c.Contains(digest.Key(k)) {
				return false
			}
		}
		return len(c.Keys()) == len(c.items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the eviction order of distinct inserts without Gets is FIFO.
func TestQuickLRUFIFOWhenUntouched(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n)%20 + 2
		c := New(size)
		for i := 0; i < size*2; i++ {
			c.Put(digest.Key(i))
		}
		// The survivors must be exactly the last `size` keys.
		for i := size; i < size*2; i++ {
			if !c.Contains(digest.Key(i)) {
				return false
			}
		}
		for i := 0; i < size; i++ {
			if c.Contains(digest.Key(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := New(1024)
	for i := 0; i < b.N; i++ {
		c.Put(digest.Key(i % 4096))
		c.Get(digest.Key((i * 7) % 4096))
	}
}
