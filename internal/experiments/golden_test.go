package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

// TestGoldenCellsByteIdentity pins the deterministic artifact of every
// experiment family: testdata/golden_cells_ci_s1.json is the cells.json
// of `repro -exp all -scale ci -seed 1`. Its entries for the families
// that predate internal/driver were captured before the three
// applications were rewired onto it; the skew and faults entries
// were added later without changing those bytes. Any refactor
// must keep every byte — the driver owns stream splitting and event
// scheduling, and any reordering of draws or same-time events shows up
// here immediately.
func TestGoldenCellsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full CI-scale registry run")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_cells_ci_s1.json"))
	if err != nil {
		t.Fatal(err)
	}

	var cells []runner.Cell
	for _, d := range Registry(CI, 1) {
		cells = append(cells, d.Cells...)
	}
	rs, err := runner.Run(context.Background(), cells, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.FirstError(rs); err != nil {
		t.Fatal(err)
	}

	// Marshal exactly as runner.WriteArtifacts does for cells.json.
	got, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if string(got) == string(want) {
		return
	}
	// Byte mismatch: find the first diverging cell for a usable error.
	var wantCells []struct {
		Experiment string          `json:"experiment"`
		Cell       string          `json:"cell"`
		Value      json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("artifact diverged from golden and golden is unreadable: %v", err)
	}
	var gotCells []struct {
		Experiment string          `json:"experiment"`
		Cell       string          `json:"cell"`
		Value      json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(got, &gotCells); err != nil {
		t.Fatal(err)
	}
	if len(gotCells) != len(wantCells) {
		t.Fatalf("cell count diverged: got %d, golden %d", len(gotCells), len(wantCells))
	}
	for i := range wantCells {
		if gotCells[i].Experiment != wantCells[i].Experiment || gotCells[i].Cell != wantCells[i].Cell {
			t.Fatalf("cell %d identity diverged: got %s/%s, golden %s/%s",
				i, gotCells[i].Experiment, gotCells[i].Cell, wantCells[i].Experiment, wantCells[i].Cell)
		}
		if string(gotCells[i].Value) != string(wantCells[i].Value) {
			t.Fatalf("cell %s/%s value diverged from the golden:\ngot:    %.200s\ngolden: %.200s",
				gotCells[i].Experiment, gotCells[i].Cell, gotCells[i].Value, wantCells[i].Value)
		}
	}
	t.Fatal("artifact bytes diverged from golden outside cell values (ordering or envelope)")
}
