package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// synthCells builds n cells whose output is a pure function of
// (experiment, name, seed), with a seed-dependent sleep so completion
// order differs from submission order under concurrency.
func synthCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cell%02d", i)
		cells[i] = Cell{
			Experiment: fmt.Sprintf("exp%d", i%3),
			Name:       name,
			Seed:       DeriveSeed(42, "synth", name),
			Run: func(ctx context.Context, seed uint64) (any, error) {
				time.Sleep(time.Duration(seed%7) * time.Millisecond)
				return map[string]uint64{"out": seed*2 + 1}, nil
			},
		}
	}
	return cells
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	marshal := func(workers int) []byte {
		rs, err := Run(context.Background(), synthCells(40), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := marshal(1)
	for _, w := range []int{2, 8, 64} {
		if got := marshal(w); string(got) != string(one) {
			t.Fatalf("workers=%d results differ from workers=1:\n%s\nvs\n%s", w, got, one)
		}
	}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	cells := synthCells(20)
	rs, err := Run(context.Background(), cells, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(rs), len(cells))
	}
	for i, r := range rs {
		if r.Cell != cells[i].Name || r.Experiment != cells[i].Experiment {
			t.Fatalf("result %d is %s/%s, want %s/%s", i, r.Experiment, r.Cell,
				cells[i].Experiment, cells[i].Name)
		}
		if r.Err != "" || r.Attempts != 1 {
			t.Fatalf("result %d: err=%q attempts=%d", i, r.Err, r.Attempts)
		}
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	var flakyAttempts atomic.Int32
	cells := []Cell{
		{Experiment: "e", Name: "ok", Seed: 1, Run: func(ctx context.Context, seed uint64) (any, error) {
			return "fine", nil
		}},
		{Experiment: "e", Name: "always-panics", Seed: 2, Run: func(ctx context.Context, seed uint64) (any, error) {
			panic("boom")
		}},
		{Experiment: "e", Name: "flaky", Seed: 3, Run: func(ctx context.Context, seed uint64) (any, error) {
			if flakyAttempts.Add(1) == 1 {
				panic("first attempt only")
			}
			return "recovered", nil
		}},
		{Experiment: "e", Name: "errors", Seed: 4, Run: func(ctx context.Context, seed uint64) (any, error) {
			return nil, errors.New("model rejected config")
		}},
	}
	rs, err := Run(context.Background(), cells, Options{Workers: 2, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != "" || rs[0].Value != "fine" {
		t.Fatalf("healthy cell disturbed: %+v", rs[0])
	}
	if rs[1].Err == "" || !strings.Contains(rs[1].Err, "panicked: boom") || rs[1].Attempts != 3 {
		t.Fatalf("panicking cell: %+v", rs[1])
	}
	if rs[1].Stack == "" {
		t.Fatal("panicking cell recorded no stack")
	}
	if rs[2].Err != "" || rs[2].Value != "recovered" || rs[2].Attempts != 2 {
		t.Fatalf("flaky cell: %+v", rs[2])
	}
	if rs[3].Err == "" || rs[3].Attempts != 3 {
		t.Fatalf("erroring cell: %+v", rs[3])
	}
	if Failed(rs) != 2 {
		t.Fatalf("Failed = %d, want 2", Failed(rs))
	}
	if err := FirstError(rs); err == nil || !strings.Contains(err.Error(), "always-panics") {
		t.Fatalf("FirstError = %v", err)
	}
}

func TestCancellationSkipsPendingCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := make([]Cell, 10)
	for i := range cells {
		i := i
		cells[i] = Cell{Experiment: "e", Name: fmt.Sprintf("c%d", i), Seed: uint64(i + 1),
			Run: func(ctx context.Context, seed uint64) (any, error) {
				if i == 0 {
					cancel()
				}
				return i, nil
			}}
	}
	rs, err := Run(ctx, cells, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rs[0].Err != "" {
		t.Fatalf("first cell should have completed: %+v", rs[0])
	}
	skipped := 0
	for _, r := range rs[1:] {
		if r.Err == skippedErr {
			skipped++
		}
	}
	// With one worker the feed loop notices cancellation after at most
	// one more cell is handed out.
	if skipped < len(cells)-2 {
		t.Fatalf("only %d cells skipped after cancel: %+v", skipped, rs)
	}
}

func TestCanceledRunDoesNotRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int32
	cells := []Cell{{Experiment: "e", Name: "c", Seed: 1,
		Run: func(ctx context.Context, seed uint64) (any, error) {
			attempts.Add(1)
			cancel()
			panic("late panic")
		}}}
	rs, _ := Run(ctx, cells, Options{Workers: 1, Retries: 5})
	if got := attempts.Load(); got != 1 {
		t.Fatalf("cell retried %d times into a canceled run", got)
	}
	if rs[0].Err == "" {
		t.Fatalf("canceled cell reported success: %+v", rs[0])
	}
}

func TestProgressReporting(t *testing.T) {
	var mu []Progress
	cells := synthCells(12)
	_, err := Run(context.Background(), cells, Options{Workers: 4,
		OnProgress: func(p Progress) { mu = append(mu, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(mu) != len(cells) {
		t.Fatalf("got %d progress events for %d cells", len(mu), len(cells))
	}
	for i, p := range mu {
		if p.Done != i+1 || p.Total != len(cells) {
			t.Fatalf("event %d: %+v", i, p)
		}
		if p.ETA < 0 || p.Elapsed < 0 {
			t.Fatalf("negative timing: %+v", p)
		}
	}
	if last := mu[len(mu)-1]; last.Done != last.Total || last.ETA != 0 {
		t.Fatalf("final event: %+v", last)
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(1, "fig1", "static")
	if a != DeriveSeed(1, "fig1", "static") {
		t.Fatal("DeriveSeed not stable")
	}
	distinct := map[uint64]string{}
	for _, labels := range [][]string{
		{"fig1", "static"}, {"fig1", "dynamic"}, {"fig2", "static"},
		{"fig1static"}, {"", "fig1static"}, {},
	} {
		s := DeriveSeed(1, labels...)
		if s == 0 {
			t.Fatalf("DeriveSeed(%v) = 0", labels)
		}
		if prev, dup := distinct[s]; dup {
			t.Fatalf("collision between %v and %q", labels, prev)
		}
		distinct[s] = strings.Join(labels, "|")
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("base seed ignored")
	}
	// Length prefixing keeps arbitrary label contents unambiguous.
	if DeriveSeed(1, "a\xff", "b") == DeriveSeed(1, "a", "\xffb") {
		t.Fatal("label boundaries ambiguous")
	}
	if DeriveSeed(1, "ab", "") == DeriveSeed(1, "a", "b") {
		t.Fatal("label boundaries ambiguous")
	}
	// Golden values: every seeded experiment derives its cells' seeds
	// here, so a changed value changes every published number.
	for _, g := range []struct {
		base   uint64
		labels []string
		want   uint64
	}{
		{1, []string{"fig1", "static"}, 0x82e2b707dba72b84},
		{1, nil, 0x5ca6bbcbb1e85355},
		{42, []string{"synth", "cell-3"}, 0x622378a9c5f49828},
		{0, []string{""}, 0x68752350ae1d483f},
		{^uint64(0), []string{"faults", "drop=0.1", "crash"}, 0x2a864907a51d734b},
	} {
		if got := DeriveSeed(g.base, g.labels...); got != g.want {
			t.Errorf("DeriveSeed(%d, %q) = %#x, want %#x", g.base, g.labels, got, g.want)
		}
	}
}

func TestWriteArtifacts(t *testing.T) {
	rs, err := Run(context.Background(), synthCells(9), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	info := RunInfo{Name: "synth-run", BaseSeed: 42, Workers: 3,
		Labels: map[string]string{"scale": "ci"}, WallSeconds: 1.5}
	dir, err := WriteArtifacts(root, info, rs)
	if err != nil {
		t.Fatal(err)
	}
	cellsA, err := os.ReadFile(filepath.Join(dir, "cells.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Result
	if err := json.Unmarshal(cellsA, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rs) || decoded[0].Cell != rs[0].Cell || decoded[0].Seed != rs[0].Seed {
		t.Fatalf("cells.json round trip mismatch: %+v", decoded)
	}

	var summary RunInfo
	data, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Cells != 9 || summary.Failed != 0 || len(summary.Experiments) != 3 {
		t.Fatalf("summary aggregates wrong: %+v", summary)
	}
	if summary.Labels["scale"] != "ci" || summary.BaseSeed != 42 {
		t.Fatalf("summary metadata lost: %+v", summary)
	}

	// cells.json must not depend on wall time or worker count: rerun
	// with different workers, byte-compare.
	rs2, err := Run(context.Background(), synthCells(9), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteArtifacts(root, RunInfo{Name: "synth-run2"}, rs2); err != nil {
		t.Fatal(err)
	}
	cellsB, err := os.ReadFile(filepath.Join(root, "synth-run2", "cells.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cellsA) != string(cellsB) {
		t.Fatalf("cells.json differs across worker counts:\n%s\nvs\n%s", cellsA, cellsB)
	}
}

func TestWriteArtifactsRejectsBadNames(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"", "..", "../escape", "a/../../escape", "/abs/path"} {
		if _, err := WriteArtifacts(root, RunInfo{Name: name}, nil); err == nil {
			t.Fatalf("run name %q accepted", name)
		}
	}
	// Nested names inside the root are fine.
	if _, err := WriteArtifacts(root, RunInfo{Name: "sweep/theta4"}, nil); err != nil {
		t.Fatalf("nested run name rejected: %v", err)
	}
}

func TestRunEmptyCellList(t *testing.T) {
	rs, err := Run(context.Background(), nil, Options{Workers: 4})
	if err != nil || len(rs) != 0 {
		t.Fatalf("empty run: %v, %v", rs, err)
	}
}
