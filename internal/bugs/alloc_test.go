package bugs

import (
	"context"
	"testing"

	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
)

// TestReplayAllocBudget is the allocs/op regression gate on a whole
// replay: reset, every event of the recorded order, Finalize and the
// fingerprints, through the same runner.Executor a distributed worker
// drives. A replay allocates only the state it creates (DESIGN.md §4.16,
// "What a replay allocates"): new records and entries, payload and
// snapshot buffers, rendered observations and fingerprints, the outcome and
// its maps. A copy on a read path, a per-call sort slice, a throwaway
// object in Restore or a payload decoded in full creeping back in fails
// here before it shows up in the benchmark's allocs_per_il. CI runs it by
// name in the bench job.
//
// Each budget is the measured count plus 10 %. Under the JSON codec the
// recorded order allocated 414 / 539 / 118 / 798 objects; with the wire
// codec 158 / 189 / 68 / 257; before sync payloads were reused while the
// sender's version held, and before Roshi records and RGA elements came
// from chunks, 59 / 56 / 29 / 43; before ReplicaDB's tables and Yorkie's
// applied set stopped being maps, 29 / 55 / 29 / 22.
func TestReplayAllocBudget(t *testing.T) {
	for _, row := range []struct {
		bug    string
		budget float64
	}{
		{"Roshi-3", 32},     // measured 29
		{"OrbitDB-5", 61},   // measured 55
		{"ReplicaDB-2", 21}, // measured 19
		{"Yorkie-1", 21},    // measured 19
	} {
		b, ok := ByName(row.bug)
		if !ok {
			t.Fatalf("no benchmark %s", row.bug)
		}
		s, err := b.Build()
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
			t.Errorf("%s: one replay allocates %.0f objects, budget %.0f", row.bug, allocs, row.budget)
		}
	}
}

// TestManifestationCheckAllocatesNothing: the Table-1 assertion appends
// each outcome's signature into its own buffer and compares bytes, so once
// the buffer is warm a check allocates nothing.
func TestManifestationCheckAllocatesNothing(t *testing.T) {
	for _, name := range []string{"Roshi-3", "OrbitDB-3", "ReplicaDB-2", "Yorkie-1"} {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		outcome, err := runner.ExecuteOnce(s, interleave.Interleaving(s.Log.IDs()))
		if err != nil {
			t.Fatal(err)
		}
		as, err := b.NewAssertions()
		if err != nil {
			t.Fatal(err)
		}
		check := func() { _ = as[0].Check(outcome) }
		check() // warm
		if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
			t.Errorf("%s: a warm manifestation check allocates %.1f objects", name, allocs)
		}
	}
}
