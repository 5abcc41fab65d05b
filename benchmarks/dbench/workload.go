package main

import "fmt"

// minExactShare is the floor under which a run's outputs count as wrong.
// The engine and the simulator are deterministic, so anything but
// equality is a defect; the live runtime is first-copy-wins on real
// goroutines and may flip a fraction of a percent of the oracle's hits
// two or three hops out into misses — nothing explains two percent
// (or, in a smoke run of a few dozen answers, more than two).
func minExactShare(kind string) (share float64, slack int64) {
	if kind == "rest-single" || kind == "rest-batch" {
		return 0.98, 2
	}
	return 1, 0
}

// runWorkload runs one workload's set-ups and timed phase and reports
// the nine end-to-end metrics.
func runWorkload(cfg runConfig) (result, error) {
	var (
		ph     phase
		setups []float64
		notes  = map[string]string{}
		err    error
	)
	switch cfg.spec.Kind {
	case "rest-single", "rest-batch":
		ph, setups, err = runRest(cfg)
	case "engine":
		ph, setups, notes, err = runEngine(cfg)
	case "sim":
		ph, setups, notes, err = runSimPaper(cfg)
	default:
		err = fmt.Errorf("unknown workload kind %q", cfg.spec.Kind)
	}
	if err != nil {
		return result{}, err
	}
	if ph.attempted == 0 {
		return result{}, fmt.Errorf("the timed phase of %g s completed no operation", cfg.seconds)
	}
	notes["setups_s"] = fmt.Sprint(setups)
	minExact, slack := minExactShare(cfg.spec.Kind)
	metrics, correct := endToEndMetrics(ph, setups, minExact, slack, notes)
	return result{
		verdict: verdict{Correct: correct, Attempted: ph.attempted, Failed: ph.failed, Metrics: metrics},
		Notes:   notes,
	}, nil
}
