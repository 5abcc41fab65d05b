package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries(3600)
	s.Incr(0)
	s.Incr(3599)
	s.Add(3600, 2)
	if s.Bucket(0) != 2 || s.Bucket(1) != 2 {
		t.Fatalf("buckets: %v %v", s.Bucket(0), s.Bucket(1))
	}
	if s.Bucket(-1) != 0 || s.Bucket(99) != 0 {
		t.Fatal("out-of-range buckets must read 0")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Total() != 4 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries(1)
	for i := 0; i < 10; i++ {
		s.Add(float64(i), 1)
	}
	if got := s.Window(2, 5); got != 3 {
		t.Fatalf("Window(2,5) = %v", got)
	}
	if got := s.Window(8, 99); got != 2 {
		t.Fatalf("Window beyond end = %v", got)
	}
	if got := s.Window(-5, 2); got != 2 {
		t.Fatalf("Window with negative from = %v", got)
	}
}

func TestSeriesValuesCopy(t *testing.T) {
	s := NewSeries(1)
	s.Incr(0)
	v := s.Values()
	v[0] = 99
	if s.Bucket(0) != 1 {
		t.Fatal("Values must return a copy")
	}
}

func TestSeriesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero width":    func() { NewSeries(0) },
		"negative time": func() { NewSeries(1).Incr(-1) },
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

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Fatal("empty Welford must read 0")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("Var = %v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Observe(3)
	if w.Mean() != 3 || w.Var() != 0 || w.Min() != 3 || w.Max() != 3 {
		t.Fatal("single-sample aggregate wrong")
	}
}

func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		sum := 0.0
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip degenerate fuzz inputs
			}
			w.Observe(x)
			sum += x
		}
		if len(xs) > 0 {
			naive := sum / float64(len(xs))
			scale := math.Max(1, math.Abs(naive))
			ok = math.Abs(w.Mean()-naive) < 1e-6*scale
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure 1(a)", "hour", "static", "dynamic")
	tb.AddRow(12, 1700.0, 1800.0)
	tb.AddRow(27, 1750.0, 2100.5)
	s := tb.String()
	for _, want := range []string{"Figure 1(a)", "hour", "static", "dynamic", "1700", "2100.500"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("v,1", 2)
	csv := tb.CSV()
	if !strings.Contains(csv, "a,b\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "v;1,2") {
		t.Fatalf("CSV cell quoting wrong:\n%s", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	if FormatFloat(3) != "3" {
		t.Fatalf("FormatFloat(3) = %s", FormatFloat(3))
	}
	if FormatFloat(3.14159) != "3.142" {
		t.Fatalf("FormatFloat(pi) = %s", FormatFloat(3.14159))
	}
}

func TestSampleHours(t *testing.T) {
	got := SampleHours(12, 15, 87)
	want := []int{12, 27, 42, 57, 72, 87}
	if len(got) != len(want) {
		t.Fatalf("SampleHours = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SampleHours = %v", got)
		}
	}
}

func TestSampleHoursPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("step 0 did not panic")
		}
	}()
	SampleHours(0, 0, 10)
}

func BenchmarkWelford(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 1000))
	}
}

func BenchmarkSeriesAdd(b *testing.B) {
	s := NewSeries(3600)
	for i := 0; i < b.N; i++ {
		s.Incr(float64(i % 345600))
	}
}
