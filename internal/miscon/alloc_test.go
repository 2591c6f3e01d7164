package miscon

import (
	"context"
	"testing"

	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
)

// TestReplayAllocBudget is the crdts row of bugs.TestReplayAllocBudget:
// one whole replay of the recorded order of CRDTs#5 (crdts.Flags{}, three
// replicas, three syncs of the full workspace) through runner.Executor. A
// merge that decodes the remote workspace into a second value, or a
// Restore that builds a fresh one, fails here first.
//
// The budget is the measured count plus 10 %. Decoding the remote
// workspace into a second value before merging it, and Restore into a
// fresh one, allocated 104 objects.
func TestReplayAllocBudget(t *testing.T) {
	for _, row := range []struct {
		scenario *Scenario
		budget   float64
	}{
		{m5CRDTs(), 14}, // measured 13
	} {
		s, err := row.scenario.Build()
		if err != nil {
			t.Fatal(err)
		}
		x, err := runner.NewExecutor(s, runner.Config{})
		if err != nil {
			t.Fatal(err)
		}
		recorded := interleave.Interleaving(s.Log.IDs())
		ctx := context.Background()
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := x.Execute(ctx, recorded, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > row.budget {
			t.Errorf("%s: one replay allocates %.0f objects, budget %.0f", row.scenario.Name(), allocs, row.budget)
		}
	}
}
