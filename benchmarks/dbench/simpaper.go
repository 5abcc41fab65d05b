package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// goldenPath is the cells.json of `repro -exp all -scale ci -seed 1`,
// relative to the repository root; the simulated round at seed 1 must
// reproduce its cells byte for byte.
const goldenPath = "internal/experiments/testdata/golden_cells_ci_s1.json"

// goldenSeed is the seed the golden file was captured at.
const goldenSeed = 1

// findGolden looks for the golden file from the working directory
// upwards: run.sh runs from the repository root, `go run -C benchmarks`
// from benchmarks/, the tests from benchmarks/dbench/.
func findGolden() ([]byte, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		if data, err := os.ReadFile(filepath.Join(dir, goldenPath)); err == nil {
			return data, nil
		}
		dir = filepath.Dir(dir)
	}
	return nil, fmt.Errorf("%s not found from the working directory upwards", goldenPath)
}

// goldenCells returns the golden file's cells of the given experiments,
// re-indented as a top-level array the way runner.WriteArtifacts would
// write that subset.
func goldenCells(names []string) ([]json.RawMessage, error) {
	data, err := findGolden()
	if err != nil {
		return nil, err
	}
	var all []json.RawMessage
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("golden cells: %w", err)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []json.RawMessage
	for _, raw := range all {
		var id struct {
			Experiment string `json:"experiment"`
		}
		if err := json.Unmarshal(raw, &id); err != nil {
			return nil, fmt.Errorf("golden cells: %w", err)
		}
		if want[id.Experiment] {
			out = append(out, raw)
		}
	}
	return out, nil
}

// paperCells materialises the cells of the named experiments at CI
// scale for one seed, in registry order.
func paperCells(names []string, seed uint64) ([]runner.Cell, error) {
	var cells []runner.Cell
	for _, n := range names {
		def, err := experiments.Find(n, experiments.CI, seed)
		if err != nil {
			return nil, err
		}
		cells = append(cells, def.Cells...)
	}
	return cells, nil
}

// round is one pass over every cell through runner.Run on one worker.
type round struct {
	results []runner.Result
	wall    time.Duration
}

func runRound(names []string, seed uint64) (round, error) {
	cells, err := paperCells(names, seed)
	if err != nil {
		return round{}, err
	}
	start := time.Now()
	rs, err := runner.Run(context.Background(), cells, runner.Options{Workers: 1})
	return round{results: rs, wall: time.Since(start)}, err
}

// indent renders v the way cells.json is written.
func indent(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// runSimPaper runs the paper's own evaluation: one round at the golden
// seed, compared byte for byte with the golden cells, then rounds at
// seeds derived from --seed for as long as another round still fits
// the time asked for. One operation is one cell.
func runSimPaper(cfg runConfig) (phase, []float64, map[string]string, error) {
	names := cfg.spec.Experiments
	warm := cfg.spec.WarmupExperiments
	if cfg.smoke() {
		names, warm = names[:1], warm[:1]
	}
	golden, err := goldenCells(names)
	if err != nil {
		return phase{}, nil, nil, err
	}
	notes := map[string]string{}

	// Set-up: resolve the experiments and run a fixed warm-up set of
	// cells once, so that lazily built state (pools, tables) exists.
	setup := func() (struct{}, error) {
		if _, err := paperCells(names, goldenSeed); err != nil {
			return struct{}{}, err
		}
		r, err := runRound(warm, goldenSeed)
		if err == nil {
			err = runner.FirstError(r.results)
		}
		return struct{}{}, err
	}
	setups, _, err := repeatSetup(cfg.setupRepeats(), setup, func(struct{}) {})
	if err != nil {
		return phase{}, nil, nil, err
	}

	ph := phase{perCall: 1}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	m0, c0 := mallocs(), cpuTime()
	start := time.Now()
	for n := 0; ; n++ {
		seed := uint64(goldenSeed)
		if n > 0 {
			seed = runner.DeriveSeed(cfg.seed, "dbench", "sim-paper", fmt.Sprint(n))
		}
		base := time.Since(start)
		r, err := runRound(names, seed)
		if err != nil {
			return phase{}, nil, nil, err
		}
		first := len(ph.calls)
		at := base
		for _, res := range r.results {
			at += res.Wall
			ph.calls = append(ph.calls, call{lat: int64(res.Wall), end: int64(at)})
			ph.attempted++
			if res.Err != "" {
				ph.failed++
				if n > 0 { // round 1 is compared with the golden cells below
					ph.checked++
					ph.inexact++
				}
			}
		}
		ph.ranges = append(ph.ranges, [2]int{first, len(ph.calls)})
		if n == 0 {
			bad, err := goldenMismatches(golden, r.results)
			if err != nil {
				return phase{}, nil, nil, err
			}
			ph.checked += int64(len(golden))
			ph.inexact += bad
		}
		// Another round only if it still ends within a tenth of the
		// time asked for, judged by the rounds so far.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n+1) > budget+budget/10 {
			break
		}
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - c0
	ph.mallocs = mallocs() - m0
	notes["rounds"] = fmt.Sprintf("%d rounds of %d cells; round 1 is seed %d, compared with %s",
		len(ph.ranges), len(golden), goldenSeed, goldenPath)
	return ph, setups, notes, nil
}

// goldenMismatches counts the cells whose JSON differs from the golden
// file's, and requires the whole subset to be byte-identical when no
// cell does.
func goldenMismatches(golden []json.RawMessage, got []runner.Result) (int64, error) {
	if len(golden) != len(got) {
		return 0, fmt.Errorf("golden has %d cells of these experiments, the run produced %d", len(golden), len(got))
	}
	var bad int64
	for i := range golden {
		want, err := indent(golden[i])
		if err != nil {
			return 0, err
		}
		have, err := indent(got[i])
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(want, have) {
			bad++
		}
	}
	wantAll, err := indent(golden)
	if err != nil {
		return 0, err
	}
	haveAll, err := indent(got)
	if err != nil {
		return 0, err
	}
	if bad == 0 && !bytes.Equal(wantAll, haveAll) {
		return 0, fmt.Errorf("cells match one by one but the artifact bytes differ")
	}
	return bad, nil
}
