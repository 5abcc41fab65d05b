// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -exp fig1a [-scale full|ci] [-seed N] [-workers N] [-csv]
//	repro -only fig1,fig3b -json [-out runs]
//
// Experiments: fig1 fig2 fig3a fig3b all (plus the single-table
// aliases fig1a fig1b fig2a fig2b), the ablations: directed iterdeep
// localindex asym benefit drift webcache peerolap, and the engine
// stress families: scale (1k/10k/100k/1M-node cascade sweeps plus the
// CSR re-freeze cell), policies (the pkg/search forward-policy
// registry swept over one network; -list-policies prints the
// registry), skew (the session-driver grid: Zipf skew × churn ×
// policy plus a flash-crowd cell), and churnserve (saturated serving
// under churn: stop-the-world re-freeze vs zero-downtime epoch swaps,
// emitting BENCH_churnserve.json). -list prints every family with a
// one-line description.
//
// -cpuprofile/-memprofile write pprof profiles of the selected run, so
// hot-path work is measurable without editing code:
//
//	repro -exp scale -workers 1 -cpuprofile cpu.pprof
//
// All selected experiments decompose into independent simulation cells
// that shard across one bounded worker pool (internal/runner). Results
// are bit-for-bit identical at any -workers value. With -json, the
// per-cell outputs land in <out>/<name>/cells.json (deterministic —
// diff it across commits) and <out>/<name>/summary.json (timing and
// failure metadata); experiments with wall-clock side measurements
// (scale, skew, churnserve, faults) additionally write
// <out>/<name>/BENCH_<exp>.json (machine-dependent — never diffed,
// never checked in).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/pkg/search"
)

func main() {
	os.Exit(run())
}

// run is main behind an exit code so the profiling defers below fire
// before the process exits (os.Exit skips deferred functions).
func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment family (see -list): fig1 ... scale policies skew, or all")
		only     = flag.String("only", "", "comma-separated experiment subset (overrides -exp)")
		scale    = flag.String("scale", "ci", "scale: full (paper, minutes) or ci (reduced, seconds)")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = flag.Bool("json", false, "write runs/<name>/{cells,summary}.json artifacts")
		outRoot  = flag.String("out", "runs", "artifact root directory (with -json)")
		runName  = flag.String("name", "", "artifact run name (default <exp>-<scale>-s<seed>)")
		progress = flag.Bool("progress", false, "report per-cell progress and ETA on stderr")
		list     = flag.Bool("list", false, "list the experiment families with descriptions and exit")
		policies = flag.Bool("list-policies", false, "list the pkg/search forward-policy registry and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run here")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (post-run) here")
	)
	flag.Parse()

	// Profiling hooks: the hot-path work of this repository is driven
	// through repro, so make it measurable without editing code.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpuprofile: %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "memprofile: %s\n", *memProf)
		}()
	}

	if *list {
		// The registry is the single source of truth for what -exp
		// accepts; scale and seed only affect cell contents, not the
		// set of families.
		w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		for _, d := range experiments.Registry(experiments.CI, 1) {
			fmt.Fprintf(w, "%s\t%d cells\t%s\n", d.Name, len(d.Cells), d.About)
		}
		w.Flush()
		fmt.Println("aliases: fig1a fig1b fig2a fig2b (single tables of fig1/fig2)")
		return 0
	}

	if *policies {
		// The policies experiment sweeps these; dsearchd selects them by
		// its policy setting and per query. One registry backs both.
		fmt.Println(strings.Join(search.PolicyNames(), "\n"))
		return 0
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	defs, label, err := selectDefs(*exp, *only, sc, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Aliases of one canonical experiment (fig1a and fig1b both resolve
	// to fig1's cells) must share one cell slice: dedupe by the cells'
	// experiment tag so nothing simulates twice and cells.json carries
	// no duplicate entries.
	type job struct {
		def      experiments.Definition
		off, len int
	}
	var (
		cells   []runner.Cell
		jobs    []job
		offsets = map[string]int{}
	)
	for _, d := range defs {
		canonical := d.Cells[0].Experiment
		off, seen := offsets[canonical]
		if !seen {
			off = len(cells)
			offsets[canonical] = off
			cells = append(cells, d.Cells...)
		}
		jobs = append(jobs, job{def: d, off: off, len: len(d.Cells)})
	}

	opts := runner.Options{Workers: *workers, Retries: 1}
	if *progress {
		opts.OnProgress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "repro: %d/%d cells (%s/%s done), elapsed %.1fs, eta %.1fs\n",
				p.Done, p.Total, p.Experiment, p.Cell, p.Elapsed.Seconds(), p.ETA.Seconds())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, runErr := runner.Run(ctx, cells, opts)
	elapsed := time.Since(start)

	if *jsonOut {
		name := *runName
		if name == "" {
			name = fmt.Sprintf("%s-%s-s%d", label, sc, *seed)
		}
		dir, err := runner.WriteArtifacts(*outRoot, runner.RunInfo{
			Name:        name,
			Labels:      map[string]string{"scale": sc.String(), "experiments": label},
			BaseSeed:    *seed,
			Workers:     *workers,
			WallSeconds: elapsed.Seconds(),
		}, results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "artifacts: %s\n", dir)

		// Wall-clock side measurements (BENCH_<exp>.json) ride along
		// with the deterministic artifacts but are never diffed. An
		// interrupted run skips them (its cells never finished); the
		// deterministic artifacts above are always written.
		for _, j := range jobs {
			if j.def.Sidecar == nil || runErr != nil {
				continue
			}
			rep, err := j.def.Sidecar(results[j.off : j.off+j.len])
			if err == nil {
				benchPath := filepath.Join(dir, "BENCH_"+j.def.Name+".json")
				err = rep.Write(benchPath)
				if err == nil {
					fmt.Fprintf(os.Stderr, "bench: %s\n", benchPath)
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: %s sidecar: %v\n", j.def.Name, err)
				return 1
			}
		}
	}

	if runErr != nil {
		fmt.Fprintln(os.Stderr, "repro: run interrupted:", runErr)
		return 1
	}

	exitCode := 0
	for _, j := range jobs {
		tables, err := j.def.Tables(results[j.off : j.off+j.len])
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", j.def.Name, err)
			exitCode = 1
			continue
		}
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "[%s scale, seed %d, %d cells, %.1fs]\n",
		sc, *seed, len(cells), elapsed.Seconds())
	return exitCode
}

// selectDefs resolves the -exp/-only flags to experiment definitions
// plus a short label for the artifact name.
func selectDefs(exp, only string, sc experiments.Scale, seed uint64) ([]experiments.Definition, string, error) {
	names := []string{}
	switch {
	case only != "":
		for _, n := range strings.Split(only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, "", fmt.Errorf("repro: -only selected nothing")
		}
	case exp == "all":
		return experiments.Registry(sc, seed), "all", nil
	default:
		names = []string{exp}
	}
	var defs []experiments.Definition
	for _, n := range names {
		d, err := experiments.Find(n, sc, seed)
		if err != nil {
			return nil, "", err
		}
		defs = append(defs, d)
	}
	return defs, strings.Join(names, "+"), nil
}
