package experiments

import (
	"testing"

	"repro/internal/runner"
)

func TestRegistryWellFormed(t *testing.T) {
	defs := Registry(CI, 1)
	if len(defs) != 16 {
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
			// scale, skew and faults families (independent cells,
			// nothing paired) derive one stable seed per cell from its
			// labels. Either way the seed is fixed at construction
			// time, never at run time.
			want := uint64(1)
			switch d.Name {
			case "scale", "skew", "faults":
				want = runner.DeriveSeed(1, d.Name, c.Name)
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
