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
// stress families: scale (1k/10k/100k/1M-node cascade sweeps),
// policies (the pkg/search forward policies swept over one network;
// -list-policies prints their names), skew (the
// session-driver grid: Zipf skew × churn × policy plus a flash-crowd
// cell), and faults (hit-rate retention under drop × crash × policy).
// -list prints every family with a one-line description.
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
// failure metadata).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind an exit code so the profiling defers below fire
// before the process exits (os.Exit skips deferred functions). Bad
// flags exit 2 before any cell runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment family (see -list): fig1 ... scale policies skew, or all")
		only     = fs.String("only", "", "comma-separated experiment subset (overrides -exp)")
		scale    = fs.String("scale", "ci", "scale: full (paper, minutes) or ci (reduced, seconds)")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = fs.Bool("json", false, "write runs/<name>/{cells,summary}.json artifacts")
		outRoot  = fs.String("out", "runs", "artifact root directory (with -json)")
		runName  = fs.String("name", "", "artifact run name (default <exp>-<scale>-s<seed>)")
		progress = fs.Bool("progress", false, "report per-cell progress and ETA on stderr")
		list     = fs.Bool("list", false, "list the experiment families with descriptions and exit")
		policies = fs.Bool("list-policies", false, "list the pkg/search forward policy names and exit")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run here")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (post-run) here")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "repro: unexpected argument %q (select experiments with -exp or -only)\n", fs.Arg(0))
		return 2
	case *workers < 0:
		fmt.Fprintf(stderr, "repro: -workers %d must not be negative (0 = GOMAXPROCS)\n", *workers)
		return 2
	}

	// Profiling hooks: the hot-path work of this repository is driven
	// through repro, so make it measurable without editing code. Both
	// files are created before the run, so a bad path fails at once.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "cpuprofile: %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 2
		}
		defer func() {
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "repro:", err)
				return
			}
			fmt.Fprintf(stderr, "memprofile: %s\n", *memProf)
		}()
	}

	if *list {
		// The registry is the single source of truth for what -exp
		// accepts; scale and seed only affect cell contents, not the
		// set of families.
		w := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
		for _, d := range experiments.Registry(experiments.CI, 1) {
			fmt.Fprintf(w, "%s\t%d cells\t%s\n", d.Name, len(d.Cells), d.About)
		}
		w.Flush()
		fmt.Fprintln(stdout, "aliases: fig1a fig1b fig2a fig2b (single tables of fig1/fig2)")
		return 0
	}

	if *policies {
		// The policies experiment sweeps these; dsearchd selects one by
		// its policy setting. PolicyByName backs both.
		fmt.Fprintln(stdout, strings.Join(search.PolicyNames(), "\n"))
		return 0
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	defs, label, err := selectDefs(*exp, *only, sc, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
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
			fmt.Fprintf(stderr, "repro: %d/%d cells (%s/%s done), elapsed %.1fs, eta %.1fs\n",
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
			fmt.Fprintln(stderr, "repro:", err)
			return 1
		}
		fmt.Fprintf(stderr, "artifacts: %s\n", dir)
	}

	if runErr != nil {
		fmt.Fprintln(stderr, "repro: run interrupted:", runErr)
		return 1
	}

	exitCode := 0
	for _, j := range jobs {
		tables, err := j.def.Tables(results[j.off : j.off+j.len])
		if err != nil {
			fmt.Fprintf(stderr, "repro: %s: %v\n", j.def.Name, err)
			exitCode = 1
			continue
		}
		for _, t := range tables {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
		}
	}
	fmt.Fprintf(stderr, "[%s scale, seed %d, %d cells, %.1fs]\n",
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
