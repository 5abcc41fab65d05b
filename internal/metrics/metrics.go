// Package metrics provides the measurement plumbing shared by all
// experiments: per-hour time series (the x-axis of Figures 1 and 2),
// streaming mean/min/max aggregates (Figure 3(a)'s average first-result
// delay), the daemon's counter registry and latency histogram, and
// renderers that print paper-style tables to text and CSV.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Series is a time series bucketed by fixed-width windows of simulated
// time (the paper buckets per hour).
type Series struct {
	bucketSec float64
	counts    []float64
}

// NewSeries returns a series with the given bucket width in seconds.
func NewSeries(bucketSec float64) *Series {
	if bucketSec <= 0 {
		panic(fmt.Sprintf("metrics: non-positive bucket width %v", bucketSec))
	}
	return &Series{bucketSec: bucketSec}
}

// Add accumulates v into the bucket containing time now.
func (s *Series) Add(now, v float64) {
	b := int(now / s.bucketSec)
	if b < 0 {
		panic(fmt.Sprintf("metrics: negative time %v", now))
	}
	for len(s.counts) <= b {
		s.counts = append(s.counts, 0)
	}
	s.counts[b] += v
}

// Incr is Add(now, 1).
func (s *Series) Incr(now float64) { s.Add(now, 1) }

// Bucket returns the accumulated value of bucket b (0 when untouched).
func (s *Series) Bucket(b int) float64 {
	if b < 0 || b >= len(s.counts) {
		return 0
	}
	return s.counts[b]
}

// Total returns the sum over all buckets.
func (s *Series) Total() float64 {
	t := 0.0
	for _, v := range s.counts {
		t += v
	}
	return t
}

// Values returns a copy of all buckets.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.counts))
	copy(out, s.counts)
	return out
}

// Window returns the sum of buckets [from, to).
func (s *Series) Window(from, to int) float64 {
	t := 0.0
	for b := from; b < to && b < len(s.counts); b++ {
		if b >= 0 {
			t += s.counts[b]
		}
	}
	return t
}

// Welford is a streaming mean/variance/min/max aggregate.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Observe folds one sample into the aggregate.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 when n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observed sample (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observed sample (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Table renders experiment results in the row/column shape the paper
// reports. It exists so every experiment prints the same way in the CLI
// harness, the benchmarks and the tests.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals,
// otherwise 3 significant decimals.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (no quoting needed for our
// numeric content; commas in cells are replaced by semicolons).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(clean(c))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(clean(cell))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SampleHours returns the paper's reporting hours: start, start+step,
// ... up to end inclusive (Figures 1-2 use 12, 27, 42, 57, 72, 87).
func SampleHours(start, step, end int) []int {
	if step <= 0 {
		panic(fmt.Sprintf("metrics: non-positive step %d", step))
	}
	var out []int
	for h := start; h <= end; h += step {
		out = append(out, h)
	}
	return out
}
