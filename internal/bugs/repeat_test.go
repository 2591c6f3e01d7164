package bugs_test

import (
	"testing"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/runner"
)

// repeatCap bounds each run: past the first few enumeration steps of every
// explorer, small enough that the 12 × 4 matrix stays well under a second.
const repeatCap = 40

// TestNoRunRepeatsAKey pins the invariant that lets both drivers skip no
// yield outside a resume or a re-prune: every explorer yields each
// interleaving at most once, so a run's record log never holds a key twice.
func TestNoRunRepeatsAKey(t *testing.T) {
	for _, b := range bugs.All() {
		s, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", b.Name, err)
		}
		for _, mode := range []runner.Mode{runner.ModeERPi, runner.ModeDFS, runner.ModeRand, runner.ModeFuzz} {
			dir, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res, err := runner.Run(s, runner.Config{Mode: mode, Seed: 1, Workers: 1, MaxInterleavings: repeatCap, Journal: dir})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, mode, err)
			}
			recs, err := dir.Records()
			if err != nil {
				t.Fatal(err)
			}
			if err := dir.Close(); err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 || len(recs) != res.Explored {
				t.Fatalf("%s/%s: %d records of %d explored", b.Name, mode, len(recs), res.Explored)
			}
			at := make(map[string]int, len(recs))
			for _, r := range recs {
				if first, dup := at[r.Key]; dup {
					t.Fatalf("%s/%s: key %s recorded at indices %d and %d", b.Name, mode, r.Key, first, r.Index)
				}
				at[r.Key] = r.Index
			}
		}
	}
}
