package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestClassString(t *testing.T) {
	for c, want := range map[BandwidthClass]string{
		Modem56K: "56K", Cable: "cable", LAN: "LAN",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestWeightOrdering(t *testing.T) {
	if !(Modem56K.Weight() < Cable.Weight() && Cable.Weight() < LAN.Weight()) {
		t.Fatal("benefit weights must increase with bandwidth")
	}
}

func TestGovernIsSlower(t *testing.T) {
	if Govern(Modem56K, LAN) != Modem56K {
		t.Fatal("slow endpoint must govern")
	}
	if Govern(LAN, Cable) != Cable {
		t.Fatal("slow endpoint must govern")
	}
	if Govern(LAN, LAN) != LAN {
		t.Fatal("identical classes govern themselves")
	}
}

func TestGovernCommutative(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := BandwidthClass(a%3), BandwidthClass(b%3)
		return Govern(x, y) == Govern(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOneWayDelayMeans(t *testing.T) {
	s := rng.New(1)
	cases := []struct {
		a, b BandwidthClass
		want float64
	}{
		{Modem56K, Modem56K, 0.300},
		{Modem56K, LAN, 0.300},
		{Cable, LAN, 0.150},
		{Cable, Cable, 0.150},
		{LAN, LAN, 0.070},
	}
	for _, tc := range cases {
		sum := 0.0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += OneWayDelay(s, tc.a, tc.b)
		}
		got := sum / n
		if math.Abs(got-tc.want) > 0.002 {
			t.Fatalf("%v-%v mean delay %v, want ~%v", tc.a, tc.b, got, tc.want)
		}
		if Govern(tc.a, tc.b).meanDelaySec() != tc.want {
			t.Fatalf("analytic mean mismatch for %v-%v", tc.a, tc.b)
		}
	}
}

func TestOneWayDelayAlwaysPositive(t *testing.T) {
	s := rng.New(2)
	for i := 0; i < 200000; i++ {
		d := OneWayDelay(s, LAN, LAN) // tightest case: 70ms ± 50ms cap
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
	}
}

func TestOneWayDelayBounded(t *testing.T) {
	s := rng.New(3)
	for i := 0; i < 100000; i++ {
		d := OneWayDelay(s, Modem56K, Cable)
		if d < 0.300-delayBound || d > 0.300+delayBound {
			t.Fatalf("delay %v escaped ±%v around 300ms", d, delayBound)
		}
	}
}

func TestAssignClassesEquallyLikely(t *testing.T) {
	s := rng.New(4)
	const n = 90000
	classes := AssignClasses(s.Intn, n)
	if len(classes) != n {
		t.Fatalf("got %d classes", len(classes))
	}
	counts := map[BandwidthClass]int{}
	for _, c := range classes {
		counts[c]++
	}
	for c, got := range counts {
		if math.Abs(float64(got)-n/3.0) > 5*math.Sqrt(n/3.0) {
			t.Fatalf("class %v count %d, want ~%d", c, got, n/3)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("saw %d distinct classes, want 3", len(counts))
	}
}

func TestMeterBuckets(t *testing.T) {
	m := NewMeter(3600)
	m.Count(MsgQuery, 0, 5)
	m.Count(MsgQuery, 3599, 1)
	m.Count(MsgQuery, 3600, 2)
	m.Count(MsgReply, 7200, 7)
	if got := m.Bucket(MsgQuery, 0); got != 6 {
		t.Fatalf("bucket 0 = %d, want 6", got)
	}
	if got := m.Bucket(MsgQuery, 1); got != 2 {
		t.Fatalf("bucket 1 = %d, want 2", got)
	}
	if got := m.Bucket(MsgReply, 2); got != 7 {
		t.Fatalf("reply bucket 2 = %d, want 7", got)
	}
	if got := m.Bucket(MsgReply, 0); got != 0 {
		t.Fatalf("untouched bucket = %d, want 0", got)
	}
}

func TestMeterTotals(t *testing.T) {
	m := NewMeter(10)
	m.Count(MsgQuery, 5, 3)
	m.Count(MsgQuery, 15, 4)
	m.Count(MsgInvite, 5, 1)
	if m.Total(MsgQuery) != 7 {
		t.Fatalf("Total(query) = %d", m.Total(MsgQuery))
	}
}

func TestMeterSeriesIsCopy(t *testing.T) {
	m := NewMeter(1)
	m.Count(MsgQuery, 0, 1)
	s := m.Series(MsgQuery)
	s[0] = 99
	if m.Bucket(MsgQuery, 0) != 1 {
		t.Fatal("Series must return a copy")
	}
}

func TestMeterPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero bucket":   func() { NewMeter(0) },
		"bad kind":      func() { NewMeter(1).Count(numMessageKinds, 0, 1) },
		"negative time": func() { NewMeter(1).Count(MsgQuery, -1, 1) },
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

func TestMessageKindString(t *testing.T) {
	for k := MessageKind(0); k < numMessageKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
}

func TestQuickMeterTotalEqualsSumOfBuckets(t *testing.T) {
	f := func(times []uint16) bool {
		m := NewMeter(100)
		for _, tm := range times {
			m.Count(MsgQuery, float64(tm), 1)
		}
		var sum uint64
		for _, v := range m.Series(MsgQuery) {
			sum += v
		}
		return sum == uint64(len(times)) && sum == m.Total(MsgQuery)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOneWayDelay(b *testing.B) {
	s := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = OneWayDelay(s, Modem56K, Cable)
	}
}
