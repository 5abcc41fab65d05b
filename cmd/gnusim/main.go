// Command gnusim runs one configurable simulation of the Section 4
// case study and prints a run summary plus (optionally) the hourly
// series as CSV. Unlike cmd/repro, which regenerates the paper's
// figures with fixed parameter sets, gnusim exposes every knob for
// exploratory runs.
//
// With -reps N the same configuration is replicated N times under
// seeds derived per replicate (internal/runner.DeriveSeed) and executed
// on the runner's worker pool; the summary then reports mean ± std over
// the replicates instead of a single run.
//
// Examples:
//
//	gnusim -mode dynamic -ttl 3 -theta 4 -hours 48
//	gnusim -mode dynamic -forward directed2 -localindex -csv > run.csv
//	gnusim -mode dynamic -reps 8 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/trace"
)

// flags are the settings buildConfig turns into a simulation config.
type flags struct {
	mode, update, benefit, forward                                   string
	users, songs, hours, ttl, neighbors, theta, swaps, reps, workers int
	localIdx, deepening                                              bool
	trial, rate                                                      float64
	seed                                                             uint64
	// args are the positional arguments, of which gnusim takes none.
	args []string
}

func main() {
	var f flags
	flag.StringVar(&f.mode, "mode", "dynamic", "protocol variant: static or dynamic")
	flag.IntVar(&f.users, "users", 2000, "network size (2000 = paper scale)")
	flag.IntVar(&f.songs, "songs", 0, "catalog size (0 = scale with users)")
	flag.IntVar(&f.hours, "hours", 96, "simulated hours")
	flag.IntVar(&f.ttl, "ttl", 2, "search hop limit")
	flag.IntVar(&f.neighbors, "neighbors", 4, "neighbor capacity")
	flag.IntVar(&f.theta, "theta", 2, "reconfiguration threshold (requests)")
	flag.IntVar(&f.swaps, "swaps", 1, "max neighbor swaps per reconfiguration (0 = unlimited)")
	flag.StringVar(&f.update, "update", "symmetric", "update regime: symmetric or asymmetric")
	flag.StringVar(&f.benefit, "benefit", "br", "benefit function: br, hits or latency")
	flag.StringVar(&f.forward, "forward", "flood", "forward policy: flood, directed2 or random2")
	flag.BoolVar(&f.localIdx, "localindex", false, "enable radius-1 local indices")
	flag.BoolVar(&f.deepening, "deepening", false, "iterative deepening schedule {1, ttl}")
	flag.Float64Var(&f.trial, "trial", 0, "invitation trial period in hours (0 = permanent accepts)")
	flag.Float64Var(&f.rate, "rate", 12, "queries per on-line user per hour")
	flag.Uint64Var(&f.seed, "seed", 1, "experiment seed")
	flag.IntVar(&f.reps, "reps", 1, "replicate the run under derived seeds, report mean ± std")
	flag.IntVar(&f.workers, "workers", 0, "worker pool size for -reps (0 = GOMAXPROCS)")
	var (
		csv       = flag.Bool("csv", false, "emit the hourly series as CSV")
		traceFile = flag.String("trace", "", "write a JSONL protocol event trace to this file")
	)
	flag.Parse()
	f.args = flag.Args()

	cfg, err := buildConfig(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnusim:", err)
		os.Exit(2)
	}
	if f.reps > 1 {
		if *traceFile != "" || *csv {
			fmt.Fprintln(os.Stderr, "gnusim: -trace and -csv apply to single runs, not -reps sweeps")
			os.Exit(2)
		}
		os.Exit(runReplicates(cfg, f.seed, f.reps, f.workers))
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gnusim:", err)
			os.Exit(2)
		}
		defer f.Close()
		sink := trace.NewJSONL(f)
		cfg.Trace = sink
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "gnusim: trace:", err)
			} else {
				fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", sink.Written(), *traceFile)
			}
		}()
	}

	start := time.Now()
	s := gnutella.New(cfg)
	m := s.Run()
	elapsed := time.Since(start)

	if *csv {
		t := metrics.NewTable("", "hour", "queries", "hits", "messages")
		for h := 0; h < f.hours; h++ {
			t.AddRow(h, m.Queries.Bucket(h), m.Hits.Bucket(h), m.Meter.Bucket(netsim.MsgQuery, h))
		}
		fmt.Print(t.CSV())
	}

	queries := m.Queries.Total()
	hits := m.Hits.Total()
	msgs := m.Meter.Total(netsim.MsgQuery)
	fmt.Fprintf(os.Stderr, "%s: %v queries, %v hits (%.1f%%), %d query messages (%.1f/query)\n",
		cfg.Mode, queries, hits, 100*hits/queries, msgs, float64(msgs)/queries)
	fmt.Fprintf(os.Stderr, "results: %d total; first-result delay %.0f ms (n=%d)\n",
		m.TotalResults, m.FirstResultDelay.Mean()*1000, m.FirstResultDelay.N())
	fmt.Fprintf(os.Stderr, "reconfigurations: %d; invites %d, evictions %d; logins %d\n",
		m.Reconfigurations, m.Meter.Total(netsim.MsgInvite), m.Meter.Total(netsim.MsgEvict), m.LoginCount)
	fmt.Fprintf(os.Stderr, "network consistent: %v; wall time %.1fs\n",
		s.Network().Consistent(), elapsed.Seconds())
}

// repSummary is the per-replicate output of a -reps sweep.
type repSummary struct {
	Hits          float64 `json:"hits"`
	Queries       float64 `json:"queries"`
	Messages      uint64  `json:"messages"`
	FirstResultMs float64 `json:"first_result_ms"`
	Reconfigs     uint64  `json:"reconfigurations"`
}

// runReplicates executes reps copies of cfg under derived seeds on the
// runner pool and prints per-replicate lines plus mean ± std
// aggregates. It returns the process exit code.
func runReplicates(cfg gnutella.Config, baseSeed uint64, reps, workers int) int {
	cells := make([]runner.Cell, reps)
	for i := 0; i < reps; i++ {
		name := fmt.Sprintf("rep%02d", i)
		cells[i] = runner.Cell{
			Experiment: "gnusim",
			Name:       name,
			Seed:       runner.DeriveSeed(baseSeed, "gnusim", name),
			Run: func(_ context.Context, seed uint64) (any, error) {
				c := cfg
				c.Seed = seed
				m := gnutella.New(c).Run()
				return &repSummary{
					Hits:          m.Hits.Total(),
					Queries:       m.Queries.Total(),
					Messages:      m.Meter.Total(netsim.MsgQuery),
					FirstResultMs: m.FirstResultDelay.Mean() * 1000,
					Reconfigs:     m.Reconfigurations,
				}, nil
			},
		}
	}

	start := time.Now()
	results, err := runner.Run(context.Background(), cells, runner.Options{Workers: workers, Retries: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnusim:", err)
		return 1
	}

	var hits, msgs, first metrics.Welford
	code := 0
	for _, r := range results {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "%s (seed %d): FAILED: %s\n", r.Cell, r.Seed, r.Err)
			code = 1
			continue
		}
		s := r.Value.(*repSummary)
		hits.Observe(s.Hits)
		msgs.Observe(float64(s.Messages))
		first.Observe(s.FirstResultMs)
		fmt.Fprintf(os.Stderr, "%s (seed %d): %v hits (%.1f%%), %d query messages, first result %.0f ms, %d reconfigs\n",
			r.Cell, r.Seed, s.Hits, 100*s.Hits/s.Queries, s.Messages, s.FirstResultMs, s.Reconfigs)
	}
	if hits.N() > 0 {
		fmt.Fprintf(os.Stderr, "%s over %d/%d replicates: hits %.1f ± %.1f [%v, %v]; messages %.0f ± %.0f; first result %.0f ± %.0f ms; wall %.1fs\n",
			cfg.Mode, hits.N(), reps,
			hits.Mean(), hits.Std(), hits.Min(), hits.Max(),
			msgs.Mean(), msgs.Std(),
			first.Mean(), first.Std(),
			time.Since(start).Seconds())
	}
	return code
}

// buildConfig assembles and validates the gnutella configuration.
func buildConfig(f flags) (gnutella.Config, error) {
	var m gnutella.Mode
	switch f.mode {
	case "static":
		m = gnutella.Static
	case "dynamic":
		m = gnutella.Dynamic
	default:
		return gnutella.Config{}, fmt.Errorf("unknown mode %q", f.mode)
	}
	switch {
	case len(f.args) > 0:
		return gnutella.Config{}, fmt.Errorf("unexpected argument %q", f.args[0])
	case f.users <= 0:
		return gnutella.Config{}, fmt.Errorf("users %d must be positive", f.users)
	case f.songs < 0:
		return gnutella.Config{}, fmt.Errorf("-songs %d must not be negative", f.songs)
	case f.reps < 1:
		return gnutella.Config{}, fmt.Errorf("-reps %d must be at least 1", f.reps)
	case f.workers < 0:
		return gnutella.Config{}, fmt.Errorf("-workers %d must not be negative (0 = GOMAXPROCS)", f.workers)
	case f.deepening && f.ttl < 2:
		return gnutella.Config{}, fmt.Errorf("-deepening needs -ttl of at least 2, got %d", f.ttl)
	}
	cfg := gnutella.DefaultConfig(m, f.ttl)
	if f.users != 2000 {
		scale := 2000 / f.users
		if scale < 1 {
			scale = 1
		}
		cfg.Music = cfg.Music.Scaled(scale)
		cfg.Music.Users = f.users
	}
	if f.songs > 0 {
		if f.songs%cfg.Music.Categories != 0 {
			return gnutella.Config{}, fmt.Errorf("songs %d not divisible by %d categories",
				f.songs, cfg.Music.Categories)
		}
		cfg.Music.Songs = f.songs
	}
	cfg.DurationHours = f.hours
	cfg.Neighbors = f.neighbors
	cfg.ReconfigThreshold = f.theta
	cfg.MaxSwaps = f.swaps
	cfg.Query.RatePerHour = f.rate
	cfg.Seed = f.seed

	switch f.update {
	case "symmetric":
		cfg.Variant.Update = gnutella.SymmetricUpdate
	case "asymmetric":
		cfg.Variant.Update = gnutella.AsymmetricUpdate
	default:
		return gnutella.Config{}, fmt.Errorf("unknown update regime %q", f.update)
	}
	switch f.benefit {
	case "br":
		cfg.Variant.Benefit = gnutella.BenefitBR
	case "hits":
		cfg.Variant.Benefit = gnutella.BenefitHitCount
	case "latency":
		cfg.Variant.Benefit = gnutella.BenefitHitsPerLatency
	default:
		return gnutella.Config{}, fmt.Errorf("unknown benefit %q", f.benefit)
	}
	switch f.forward {
	case "flood":
		cfg.Variant.Forward = gnutella.ForwardFlood
	case "directed2":
		cfg.Variant.Forward = gnutella.ForwardDirected2
	case "random2":
		cfg.Variant.Forward = gnutella.ForwardRandom2
	default:
		return gnutella.Config{}, fmt.Errorf("unknown forward policy %q", f.forward)
	}
	cfg.Variant.UseLocalIndices = f.localIdx
	if f.deepening {
		cfg.Variant.IterativeDeepening = []int{1, f.ttl}
		cfg.Variant.DeepeningTimeout = 2.0
	}
	cfg.Variant.TrialPeriodHours = f.trial
	return cfg, cfg.Validate()
}
