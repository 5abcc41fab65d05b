package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// The policies experiment family sweeps pkg/search forward policies
// over one mid-size scale network: the same wiring, holdings and query
// stream under every forward policy, isolating what fan-out alone buys
// and costs. Policies are config-selectable strings from a fixed set
// (search.PolicyNames), so the sweep is literally a list of names.
//
// Stochastic families (random-<k>) draw deterministic per-query streams
// inside the engine, so every cell remains a pure function of (config,
// seed) and cells.json stays byte-comparable at any worker count.

// policySweep lists the policy names the sweep compares. directed-bft
// is left out: no ledgers accumulate in the stateless scale harness, so
// it forwards to every candidate and its cell would equal flood's by
// construction (TestQuickDirectedBFTDegeneratesToFlood asserts that);
// the directed ablation is where its history pays.
var policySweep = []string{"flood", "random-3", "random-2", "random-1"}

// PolicySummary is the deterministic output of one policies cell.
type PolicySummary struct {
	Policy string `json:"policy"`
	ScaleSummary
}

// policyNodes returns the sweep's network size: large enough that
// fan-out differences dominate, small enough for CI.
func policyNodes(s Scale) int {
	if s == Full {
		return 10_000
	}
	return 1_000
}

// PolicyCells returns one cell per policy name over the shared
// network shape.
func PolicyCells(experiment string, scale Scale, seed uint64) []runner.Cell {
	// Every cell shares the experiment seed: identical wiring, holdings
	// and query stream, so the comparison isolates the policy itself —
	// the same pairing discipline as the figure experiments.
	cells := make([]runner.Cell, 0, len(policySweep))
	for _, policy := range policySweep {
		cfg := DefaultScaleConfig(policyNodes(scale), scaleQueries(scale)/2, seed)
		cfg.Policy = policy
		cells = append(cells, cell(experiment, policy, cfg, scaleSeed, func(c ScaleConfig) (*PolicySummary, error) {
			sum, err := RunScale(c)
			if err != nil {
				return nil, err
			}
			return &PolicySummary{Policy: policy, ScaleSummary: *sum}, nil
		}))
	}
	return cells
}

// PolicyTable renders the sweep.
func PolicyTable(sums []*PolicySummary) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Forward-policy sweep over one %d-node network (pkg/search policies)", sums[0].Nodes),
		"policy", "hit_rate", "msgs/query", "visited", "p50_ms", "p95_ms")
	for _, s := range sums {
		t.AddRow(s.Policy, s.HitRate, s.MsgsPerQuery, s.VisitedMean, s.DelayP50Ms, s.DelayP95Ms)
	}
	return t
}
