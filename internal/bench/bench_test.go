package bench

import (
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/datalog"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/runner"
)

func TestRunFig8SubsetShapes(t *testing.T) {
	// A fast subset: one bug every mode reproduces quickly.
	res, err := RunFig8(2000, 1, "OrbitDB-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 modes", len(res.Rows))
	}
	byMode := map[runner.Mode]Fig8Row{}
	for _, r := range res.Rows {
		if r.Bug != "OrbitDB-2" {
			t.Fatalf("unexpected bug %s", r.Bug)
		}
		byMode[r.Mode] = r
	}
	erpi := byMode[runner.ModeERPi]
	dfs := byMode[runner.ModeDFS]
	if !erpi.Reproduced || !dfs.Reproduced {
		t.Fatal("OrbitDB-2 must reproduce under ER-π and DFS")
	}
	if erpi.Interleavings > dfs.Interleavings {
		t.Fatalf("ER-π (%d) must not need more interleavings than DFS (%d)",
			erpi.Interleavings, dfs.Interleavings)
	}
	rendered := res.Render()
	for _, want := range []string{"Figure 8a", "Figure 8b", "Aggregates"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunFig8UnknownBug(t *testing.T) {
	if _, err := RunFig8(10, 1, "NotABug"); err == nil {
		t.Fatal("unknown bug must error")
	}
}

func TestRunTable2AllDetected(t *testing.T) {
	cells, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 14 {
		t.Fatalf("cells = %d, want 14", len(cells))
	}
	for _, c := range cells {
		if !c.Detected {
			t.Errorf("%s#%d not detected", c.Subject, c.Misconception)
		}
	}
	var b strings.Builder
	if err := WriteTable2(&b, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Roshi") || !strings.Contains(b.String(), "✓") {
		t.Fatalf("table render broken:\n%s", b.String())
	}
}

func TestRunFig9Shapes(t *testing.T) {
	rows, err := RunFig9(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	stagesPerBug := map[string]map[prune.AblationStage]bool{}
	for _, r := range rows {
		if r.Reduction < 1 {
			t.Errorf("%s/%s reduction %f < 1: pruning must never grow the space",
				r.Bug, r.Stage, r.Reduction)
		}
		if stagesPerBug[r.Bug] == nil {
			stagesPerBug[r.Bug] = map[prune.AblationStage]bool{}
		}
		stagesPerBug[r.Bug][r.Stage] = true
	}
	if len(stagesPerBug) != 12 {
		t.Fatalf("bugs covered = %d, want 12", len(stagesPerBug))
	}
	for bug, stages := range stagesPerBug {
		if !stages[prune.StageGrouping] || !stages[prune.StageReplica] {
			t.Errorf("%s missing grouping or replica-specific ablation", bug)
		}
	}
	var b strings.Builder
	if err := WriteFig9(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "grouping") {
		t.Fatal("fig9 render broken")
	}
}

func TestRunFig10SucceedOrCrash(t *testing.T) {
	rows, err := RunFig10(2, DefaultFig10Budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 runs x 3 modes", len(rows))
	}
	for _, r := range rows {
		switch r.Mode {
		case runner.ModeERPi:
			if !r.Succeed {
				t.Errorf("run %d: ER-π must succeed within the budget", r.Run)
			}
		case runner.ModeDFS, runner.ModeRand:
			if r.Succeed {
				t.Errorf("run %d: %s should exhaust the budget on the 24-event space", r.Run, r.Mode)
			}
			if want := DefaultFig10Budget / datalog.FactsPerInterleaving(24); r.Explored != want {
				t.Errorf("run %d: %s explored %d, want the budget's %d interleavings", r.Run, r.Mode, r.Explored, want)
			}
		}
	}
	var b strings.Builder
	if err := WriteFig10(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "✓") || !strings.Contains(b.String(), "✗") {
		t.Fatalf("fig10 render broken:\n%s", b.String())
	}
}

func TestRunTable1FastSubset(t *testing.T) {
	// The full Table 1 runs in cmd/erpi-bench; here check the renderer and
	// a couple of rows through the real path.
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Reproduced {
			t.Errorf("%s not reproduced", r.Name)
		}
	}
	var b strings.Builder
	if err := WriteTable1(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Roshi-1") {
		t.Fatal("table1 render broken")
	}
}
