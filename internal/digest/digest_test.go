package digest

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.Add(Key(i * 7919))
	}
	for i := 0; i < 1000; i++ {
		if !b.Contains(Key(i * 7919)) {
			t.Fatalf("false negative for key %d", i*7919)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := NewBloom(10000, 0.01)
	for i := 0; i < 10000; i++ {
		b.Add(Key(i))
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if b.Contains(Key(1_000_000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %v, want <= ~0.01", rate)
	}
}

func TestBloomEmpty(t *testing.T) {
	b := NewBloom(100, 0.01)
	if b.Contains(42) {
		t.Fatal("empty filter claims membership")
	}
}

func TestBloomPanicsOnBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"n=0":  func() { NewBloom(0, 0.01) },
		"fp=0": func() { NewBloom(10, 0) },
		"fp=1": func() { NewBloom(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestQuickBloomNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		b := NewBloom(len(keys), 0.01)
		for _, k := range keys {
			b.Add(Key(k))
		}
		for _, k := range keys {
			if !b.Contains(Key(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	f := NewBloom(100000, 0.01)
	for i := 0; i < b.N; i++ {
		f.Add(Key(i))
	}
}

func BenchmarkBloomContains(b *testing.B) {
	f := NewBloom(100000, 0.01)
	s := rng.New(1)
	for i := 0; i < 100000; i++ {
		f.Add(Key(s.Uint64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Contains(Key(i))
	}
}
