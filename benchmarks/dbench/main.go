// Command dbench is this repository's benchmark: six named workloads
// driven through the program's public functions, every answer checked
// against an independent oracle, nine end-to-end metrics per workload,
// and — in a separate traced run — the layer ladder.
//
//	bash benchmarks/run.sh                      # every workload, one child process each
//	bash benchmarks/run.sh --workload rest-hit --seed 3 --seconds 10 --trace 0
//	bash benchmarks/run.sh --workload rest-hit --trace 1     # the ladder + trace.json
//	bash benchmarks/run.sh -selfcheck DIR_A DIR_B
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; see README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed testplan.json
var testplanJSON []byte

// testplan is the checked-in measurement plan (testplan.json): what
// each workload runs on and with how many clients. The code reads its
// parameters from here, so the document is the configuration, not a
// description of it.
type testplan struct {
	Version   int                  `json:"version"`
	Note      string               `json:"note"`
	Worlds    map[string]worldSpec `json:"worlds"`
	Workloads []workloadSpec       `json:"workloads"`
}

type worldSpec struct {
	Builder  string `json:"builder"`
	Seed     uint64 `json:"seed"`
	Nodes    int    `json:"nodes"`
	Degree   int    `json:"degree"`
	TTL      int    `json:"ttl"`
	Keys     int    `json:"keys"`
	Replicas int    `json:"replicas"`
}

type churnSpec struct {
	RewiresPerEpoch int `json:"rewires_per_epoch"`
	PeriodMillis    int `json:"period_ms"`
	SampledEpochs   int `json:"sampled_epochs"`
}

type workloadSpec struct {
	Name              string     `json:"name"`
	Why               string     `json:"why"`
	Kind              string     `json:"kind"`
	World             string     `json:"world"`
	Select            string     `json:"select"`
	Clients           string     `json:"clients"`
	MaxHits           int        `json:"max_hits"`
	Slab              int        `json:"slab"`
	DistinctSlabs     int        `json:"distinct_slabs"`
	WarmupOps         int        `json:"warmup_ops"`
	Churn             *churnSpec `json:"churn"`
	Experiments       []string   `json:"experiments"`
	WarmupExperiments []string   `json:"warmup_experiments"`
}

func loadPlan() testplan {
	var p testplan
	if err := json.Unmarshal(testplanJSON, &p); err != nil {
		panic("dbench: embedded testplan.json: " + err.Error())
	}
	return p
}

func (p testplan) workload(name string) (workloadSpec, bool) {
	for _, w := range p.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef is one named metric with its unit and direction; Bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before it counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. BENCHMARK.json lists the
// same nine; TestNamesAndBenchmarkJSON keeps the two in step.
//
// One bound serves all six workloads, so each is set by the workload
// on which the metric is least steady on the reference host (README.md,
// "Noise floor"): at least three times the widest run-to-run spread
// seen there, and no more than the quarter the contract allows.
// latency_p50_ms and cpu_ms_per_op owe their quarter to rest-lookup,
// whose process is idle 95% of the time and pays wake-up costs that
// differ by a fifth from run to run; latency_tail_ms owes it to
// rest-hit's p99, which sits where garbage collection cycles land;
// throughput_per_s to the CPU-bound workloads, which the shared host
// slows by a tenth and more for minutes at a time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"exact_share", "share", "higher", 0.005},
	{"ok_share", "share", "higher", 0.001},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the object a run prints as its last line.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is what one run reports: the verdict, plus what -out keeps
// beside it.
type result struct {
	verdict

	Workload string            `json:"workload,omitempty"`
	Seed     uint64            `json:"seed,omitempty"`
	Seconds  float64           `json:"seconds,omitempty"`
	Trace    int               `json:"trace"`
	Env      *envStamp         `json:"env,omitempty"`
	Notes    map[string]string `json:"notes,omitempty"`
}

// runConfig is the parsed command line of one workload run.
type runConfig struct {
	spec    workloadSpec
	plan    testplan
	seed    uint64
	seconds float64
	// scale shrinks worlds, warm-ups and the timed phase for -smoke
	// (0.01); 1 for a real run.
	scale float64
	out   io.Writer // human-readable report
}

func (c runConfig) smoke() bool { return c.scale < 1 }

func (c runConfig) clients() int {
	if c.spec.Clients == "nproc" {
		return runtime.NumCPU()
	}
	return 1
}

// setupRepeats is how many times set-up runs; setup_s is their median.
func (c runConfig) setupRepeats() int {
	if c.smoke() {
		return 1
	}
	return 3
}

// scaled shrinks a count under -smoke, never below floor.
func (c runConfig) scaled(n, floor int) int {
	if v := int(float64(n) * c.scale); v > floor {
		return v
	}
	return floor
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run; empty runs every workload, one child process each")
		seed      = flag.Uint64("seed", 1, "workload seed: query choice and order, churn rewires, simulated round seeds")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 runs the traced ladder (per-layer metrics, trace.json) instead of the timed run")
		smoke     = flag.Bool("smoke", false, "1% size: tiny worlds and phases, for tests")
		outDir    = flag.String("out", "", "directory to keep this run's result JSON in (for -selfcheck)")
		selfcheck = flag.Bool("selfcheck", false, "compare two result directories: dbench -selfcheck DIR_A DIR_B")
	)
	flag.Parse()

	if *selfcheck {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: dbench -selfcheck DIR_A DIR_B")
			return 2
		}
		return runSelfcheck(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	plan := loadPlan()
	if *workload == "" {
		return runAll(plan, *seed, *seconds, *trace, *smoke, *outDir)
	}
	spec, ok := plan.workload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "dbench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{spec: spec, plan: plan, seed: *seed, seconds: *seconds, scale: 1, out: os.Stdout}
	if *smoke {
		cfg.scale = 0.01
		cfg.seconds = *seconds * cfg.scale
	}

	env := stampEnv()
	cfg.logf("dbench %s seed=%d seconds=%g trace=%d", spec.Name, cfg.seed, cfg.seconds, *trace)
	cfg.logf("env %s", env)
	refBefore := refKernelMillis()

	var res result
	var err error
	if *trace == 1 {
		res, err = runLadder(cfg, "trace.json")
	} else {
		res, err = runWorkload(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbench: %s: %v\n", spec.Name, err)
		return 1
	}
	env.RefKernelMillis = [2]float64{refBefore, refKernelMillis()}
	cfg.logf("host.ref_kernel_ms before=%.3f after=%.3f", env.RefKernelMillis[0], env.RefKernelMillis[1])
	if *trace == 1 {
		res.Metrics["host.ref_kernel_ms"] = value{(env.RefKernelMillis[0] + env.RefKernelMillis[1]) / 2, "ms"}
	}
	res.Workload, res.Seed, res.Seconds, res.Trace, res.Env = spec.Name, cfg.seed, cfg.seconds, *trace, &env

	printMetrics(cfg.out, res)
	if *outDir != "" {
		if err := writeResult(*outDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "dbench: %v\n", err)
			return 1
		}
	}
	last, err := json.Marshal(res.verdict)
	if err != nil { // a metric that is not a number: a probe measured nothing
		fmt.Fprintf(os.Stderr, "dbench: %s: %v\n", spec.Name, err)
		return 1
	}
	fmt.Println(string(last))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "dbench: %s: outputs are not correct (see notes above)\n", spec.Name)
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	notes := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "note %s: %s\n", k, res.Notes[k])
	}
}

func writeResult(dir string, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.s%d.t%d.%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// runAll runs every workload of the plan as a child process of its own,
// so peak_rss_mb is per workload, and passes their reports through.
func runAll(plan testplan, seed uint64, seconds float64, trace int, smoke bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range plan.Workloads {
		args := []string{
			"--workload", w.Name,
			"--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds),
			"--trace", fmt.Sprint(trace),
		}
		if smoke {
			args = append(args, "-smoke")
		}
		if outDir != "" {
			args = append(args, "-out", outDir)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "dbench: workload %s: %v\n", w.Name, err)
			status = 1
		}
		fmt.Println()
	}
	return status
}
