package bugs

import (
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
)

// TestAvoidedPathAllocBudget is the allocs/op regression gate on the
// avoidance layers: a fresh executor with the prefix cache and the
// subsumption table on, at cap-accel's 1 MiB budgets, over the first
// avoidedPathLeaves pruned interleavings of a row — prefix restores,
// snapshots, context hashes, table visits, dead-prefix skips and the
// outcomes of the leaves that do execute, with the executor's set-up
// spread over them. A copy of the path's bookkeeping into a snapshot or
// back, or a map built for a leaf that is then subsumed, fails here
// before it shows up in cap-accel's allocs_per_il. CI runs it by name in
// the bench job beside TestReplayAllocBudget.
//
// Each budget is the measured objects per interleaving plus 10 %. While
// prefix snapshots copied the pending-payload and observation maps, and
// every leaf built its outcome's map up front, the two rows measured
// 5.98 / 24.15.
func TestAvoidedPathAllocBudget(t *testing.T) {
	const leaves = 2500
	for _, row := range []struct {
		bug    string
		budget float64
	}{
		{"ReplicaDB-2", 3.1}, // measured 2.80
		{"OrbitDB-5", 15.0},  // measured 13.63
	} {
		b, ok := ByName(row.bug)
		if !ok {
			t.Fatalf("no benchmark %s", row.bug)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := runner.Config{Mode: runner.ModeERPi, PrefixCacheBytes: 1 << 20, SubsumptionTable: 1 << 20}
		explorer, err := runner.NewExplorer(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ils []interleave.Interleaving
		for len(ils) < leaves {
			il, ok := explorer.Next()
			if !ok {
				break
			}
			ils = append(ils, slices.Clone(il))
		}
		ctx := context.Background()
		subsumed := 0
		allocs := testing.AllocsPerRun(5, func() {
			x, err := runner.NewExecutor(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			subsumed = 0
			for i, il := range ils {
				if _, _, err := x.Execute(ctx, il, i+1); errors.Is(err, runner.ErrSubsumed) {
					subsumed++
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
		perIL := allocs / float64(len(ils))
		t.Logf("%s: %.2f objects per interleaving over %d (%d subsumed)", row.bug, perIL, len(ils), subsumed)
		if perIL > row.budget {
			t.Errorf("%s: %.2f objects per interleaving, budget %.2f", row.bug, perIL, row.budget)
		}
	}
}
