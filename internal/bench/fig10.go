package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/datalog"
	"github.com/er-pi/erpi/internal/runner"
)

// Fig10Run is one run of the succeed-or-crash micro-benchmark (paper
// Figure 10): the OrbitDB-5 workload explored WITHOUT the 10K termination
// threshold, under a fact budget that models the machine's memory. Every
// explored interleaving would be persisted in the deductive store at
// datalog.FactsPerInterleaving facts, and no interleaving is explored
// twice, so the budget admits a fixed number of them: the run's cap. A run
// either reproduces the bug within it (✓) or exhausts it (✗).
type Fig10Run struct {
	Run      int
	Mode     runner.Mode
	Succeed  bool
	Explored int
	Duration time.Duration
}

// DefaultFig10Budget is the store budget in facts. An interleaving of the
// 24-event OrbitDB-5 workload costs 25 facts, so this admits exactly 2000
// interleavings — far above ER-π's need and far below the baselines'.
const DefaultFig10Budget = 50000

// RunFig10 executes `runs` runs per mode; each run uses a distinct Rand
// seed (ER-π and DFS are deterministic, matching the paper's observation
// that their outcomes were stable across runs).
func RunFig10(runs int, budget int) ([]Fig10Run, error) {
	if runs <= 0 {
		runs = 5
	}
	if budget <= 0 {
		budget = DefaultFig10Budget
	}
	b, ok := bugs.ByName("OrbitDB-5")
	if !ok {
		return nil, fmt.Errorf("bench: OrbitDB-5 benchmark missing")
	}
	var out []Fig10Run
	for run := 1; run <= runs; run++ {
		for _, mode := range []runner.Mode{runner.ModeERPi, runner.ModeDFS, runner.ModeRand} {
			scenario, err := b.Build()
			if err != nil {
				return nil, err
			}
			asserts, err := b.NewAssertions()
			if err != nil {
				return nil, err
			}
			// A cap of 0 would mean the default, not none.
			per := datalog.FactsPerInterleaving(scenario.Log.Len())
			if budget < per {
				return nil, fmt.Errorf("bench: fig10 budget %d is below one interleaving's %d facts", budget, per)
			}
			res, err := runner.Run(scenario, runner.Config{
				Mode:             mode,
				Seed:             int64(run), // varies Rand only
				MaxInterleavings: budget / per,
				StopOnViolation:  true,
				Assertions:       asserts,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: fig10 %s run %d: %w", mode, run, err)
			}
			out = append(out, Fig10Run{
				Run:      run,
				Mode:     mode,
				Succeed:  res.FirstViolation > 0,
				Explored: res.Explored,
				Duration: res.Duration,
			})
		}
	}
	return out, nil
}

// WriteFig10 renders the succeed-or-crash grid.
func WriteFig10(w io.Writer, rows []Fig10Run) error {
	if _, err := fmt.Fprintln(w, "Figure 10: succeed-or-crash micro-benchmark on OrbitDB-5 (✓ = reproduced, ✗ = resources exhausted)"); err != nil {
		return err
	}
	byRun := make(map[int]map[runner.Mode]Fig10Run)
	maxRun := 0
	for _, r := range rows {
		if byRun[r.Run] == nil {
			byRun[r.Run] = make(map[runner.Mode]Fig10Run)
		}
		byRun[r.Run][r.Mode] = r
		if r.Run > maxRun {
			maxRun = r.Run
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Run\tER-π\tDFS\tRand")
	for run := 1; run <= maxRun; run++ {
		line := fmt.Sprintf("run%d", run)
		for _, mode := range []runner.Mode{runner.ModeERPi, runner.ModeDFS, runner.ModeRand} {
			r := byRun[run][mode]
			mark := "✗"
			if r.Succeed {
				mark = "✓"
			}
			line += fmt.Sprintf("\t%s (%d ils)", mark, r.Explored)
		}
		fmt.Fprintln(tw, line)
	}
	return tw.Flush()
}
