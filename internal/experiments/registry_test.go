package experiments

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestRegistryWellFormed(t *testing.T) {
	defs := Registry(CI, 1)
	if len(defs) != 17 {
		t.Fatalf("registry has %d definitions", len(defs))
	}
	seenDef := map[string]bool{}
	for _, d := range defs {
		if seenDef[d.Name] {
			t.Fatalf("duplicate definition %q", d.Name)
		}
		seenDef[d.Name] = true
		if len(d.Cells) == 0 {
			t.Fatalf("definition %q has no cells", d.Name)
		}
		if d.Tables == nil {
			t.Fatalf("definition %q has no renderer", d.Name)
		}
		if d.About == "" {
			t.Fatalf("definition %q has no -list description", d.Name)
		}
		seenCell := map[string]bool{}
		for _, c := range d.Cells {
			if c.Experiment != d.Name {
				t.Fatalf("definition %q owns cell tagged %q", d.Name, c.Experiment)
			}
			if seenCell[c.Name] {
				t.Fatalf("definition %q has duplicate cell %q", d.Name, c.Name)
			}
			seenCell[c.Name] = true
			if c.Run == nil {
				t.Fatalf("cell %s/%s has no body", d.Name, c.Name)
			}
			// Cells of paired-comparison experiments (the policies
			// sweep included) share the experiment seed so variant
			// comparisons run identical workload streams; only the
			// scale and skew families (independent cells, nothing
			// paired) derive one stable seed per cell from its labels.
			// Churnserve is paired the other way around: both modes of
			// one size share the seed derived from the size label, so
			// their worlds — and deterministic summaries — agree.
			// Either way the seed is fixed at construction time, never
			// at run time.
			want := uint64(1)
			switch d.Name {
			case "scale", "skew", "faults":
				want = runner.DeriveSeed(1, d.Name, c.Name)
			case "churnserve":
				_, size, ok := strings.Cut(c.Name, "-")
				if !ok {
					t.Fatalf("churnserve cell %q not mode-n<size> shaped", c.Name)
				}
				want = runner.DeriveSeed(1, d.Name, size)
			}
			if c.Seed != want {
				t.Fatalf("cell %s/%s has seed %d, want %d", d.Name, c.Name, c.Seed, want)
			}
		}
	}
}

func TestFindResolvesAliases(t *testing.T) {
	for _, name := range []string{"fig1a", "fig1b", "fig2a", "fig2b"} {
		d, err := Find(name, CI, 1)
		if err != nil {
			t.Fatalf("Find(%q): %v", name, err)
		}
		if d.Name != name || len(d.Cells) != 2 {
			t.Fatalf("Find(%q) = %q with %d cells", name, d.Name, len(d.Cells))
		}
	}
	if _, err := Find("fig1", CI, 1); err != nil {
		t.Fatalf("Find(fig1): %v", err)
	}
	if _, err := Find("bogus", CI, 1); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestAssembleRejectsWrongShape(t *testing.T) {
	d, err := Find("fig3a", CI, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tables(nil); err == nil {
		t.Fatal("empty result slice accepted")
	}
}

// TestScalePerfReport runs small cells of each stress family through
// runner.Run and writes the family's sidecar: every entry carries
// exactly the metric keys BENCH_<exp>.json always had (sorted names
// below), wall-clock ones included, while the marshaled results — what
// cells.json holds — carry none of the wall-clock keys.
func TestScalePerfReport(t *testing.T) {
	const (
		scaleKeys = "allocs/query delay_p50_ms delay_p95_ms delay_p99_ms events/sec hit-rate msgs/query "
		queryKeys = "delay_p95_ms events/sec hit-rate msgs/query queries/sec wall_seconds"
		churnKeys = "downtime_ms probe_hit_rate probe_msgs/query "
	)
	faultsCfg := ciFaultsConfig(3)
	faultsCfg.Drop, faultsCfg.CrashFraction = 0.05, 0.1
	churn := func(mode string) runner.Cell {
		return cell("churnserve", mode+"-n3000", DefaultScaleConfig(3000, 300, 7), scaleSeed,
			func(c ScaleConfig) (*ChurnServeSummary, error) {
				return RunChurnServe(c, 4, 30, 200, 2, mode == "epochswap")
			})
	}
	for _, tc := range []struct {
		family string
		cells  []runner.Cell
		want   map[string]string
	}{
		{"scale", []runner.Cell{
			cell("scale", "n400", smallScaleConfig(5), scaleSeed, RunScale),
			cell("scale", "refreeze-n400", smallScaleConfig(5), scaleSeed, func(c ScaleConfig) (*ScaleSummary, error) {
				return RunRefreeze(c, 4, 50)
			}),
		}, map[string]string{
			"scale/n400":          scaleKeys + "wall_seconds",
			"scale/refreeze-n400": scaleKeys + "refreeze_ms wall_seconds",
		}},
		{"skew", []runner.Cell{cell("skew", "stable", ciSkewConfig(3),
			func(c *SkewConfig) *uint64 { return &c.Seed }, RunSkew)},
			map[string]string{"skew/stable": queryKeys}},
		{"faults", []runner.Cell{cell("faults", "flood-d05-c10", faultsCfg,
			func(c *FaultsConfig) *uint64 { return &c.Seed }, RunFaults)},
			map[string]string{"faults/flood-d05-c10": queryKeys}},
		{"churnserve", []runner.Cell{churn("stopworld"), churn("epochswap")}, map[string]string{
			"churnserve/stopworld-n3000": churnKeys + "queries/sec wall_seconds workers",
			"churnserve/epochswap-n3000": churnKeys + "publish_ms queries/sec wall_seconds workers",
			"saturate-under-churn": "epochswap_downtime_ms epochswap_qps nodes qps_ratio " +
				"stopworld_downtime_ms stopworld_qps",
		}},
	} {
		t.Run(tc.family, func(t *testing.T) {
			rs, _ := runner.Run(context.Background(), tc.cells, runner.Options{})
			d, _ := Find(tc.family, CI, 1)
			rep, err := d.Sidecar(rs)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "sub", "BENCH_"+tc.family+".json")
			var got Report
			if err := rep.Write(path); err != nil {
				t.Fatal(err)
			}
			if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &got) != nil {
				t.Fatalf("written report unreadable: %v", err)
			}
			if got.Schema != SchemaVersion || got.Source != tc.family+"-experiment" || len(got.Entries) != len(tc.want) {
				t.Fatalf("report header or size wrong: %+v", got)
			}
			for i, e := range got.Entries {
				if i > 0 && got.Entries[i-1].Name >= e.Name {
					t.Errorf("entries not sorted by name at %s", e.Name)
				}
				if keys := strings.Join(slices.Sorted(maps.Keys(e.Metrics)), " "); keys != tc.want[e.Name] {
					t.Errorf("%s metrics %q, want %q", e.Name, keys, tc.want[e.Name])
				}
			}
			cells, _ := json.Marshal(rs)
			for _, k := range strings.Fields("Wall wall_seconds events/sec queries/sec allocs/query " +
				"refreeze_ms downtime_ms publish_ms workers") {
				if strings.Contains(string(cells), k) {
					t.Errorf("results JSON carries wall-clock key %q", k)
				}
			}
		})
	}
}
