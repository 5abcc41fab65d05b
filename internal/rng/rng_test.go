package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling child streams produced identical first output")
	}
	// Splitting must not change determinism of the parent continuation.
	p2 := New(7)
	p2.Split()
	p2.Split()
	parent2 := New(7)
	parent2.Split()
	parent2.Split()
	if p2.Uint64() != parent2.Uint64() {
		t.Fatal("parent stream after splits is not deterministic")
	}
}

func TestSplitN(t *testing.T) {
	kids := New(3).SplitN(16)
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatal("SplitN produced colliding child streams")
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(17)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(19)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(23)
	const mean, n = 3.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestExpPositive(t *testing.T) {
	s := New(29)
	for i := 0; i < 100000; i++ {
		if v := s.Exp(1); v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	New(1).Exp(-1)
}

func TestNormalMoments(t *testing.T) {
	s := New(31)
	const mean, sd, n = 200.0, 50.0, 200000
	sum, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(mean, sd)
		sum += v
		sq += v * v
	}
	m := sum / n
	variance := sq/n - m*m
	if math.Abs(m-mean) > 1 {
		t.Fatalf("Normal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 1 {
		t.Fatalf("Normal stddev = %v, want ~%v", math.Sqrt(variance), sd)
	}
}

func TestBoundedNormalRespectsBounds(t *testing.T) {
	s := New(37)
	lo, hi := 200.0, 400.0
	for i := 0; i < 100000; i++ {
		v := s.BoundedNormal(300, 20, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("BoundedNormal escaped [%v,%v]: %v", lo, hi, v)
		}
	}
}

func TestBoundedNormalPanicsOnEmptyInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty interval did not panic")
		}
	}()
	New(1).BoundedNormal(0, 1, 5, 4)
}

func TestBoundedNormalPanicsOnFarInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal(">8σ interval did not panic")
		}
	}()
	New(1).BoundedNormal(0, 1, 100, 200)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBernoulli(t *testing.T) {
	s := New(61)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestQuickFloat64InUnitInterval(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		s := New(seed)
		for i := 0; i < int(n); i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n)%1000 + 1
		s := New(seed)
		v := s.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		return New(seed).Uint64() == New(seed).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(200, 50)
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(3)
	}
}
