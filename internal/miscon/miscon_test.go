package miscon

import (
	"context"
	"reflect"
	"testing"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/runner"
)

// TestTable2Coverage pins the checkmark matrix of the paper's Table 2.
func TestTable2Coverage(t *testing.T) {
	want := map[string][]int{
		"Roshi":     {1, 2, 3, 5},
		"OrbitDB":   {1, 5},
		"ReplicaDB": {1},
		"Yorkie":    {1, 5},
		"CRDTs":     {1, 2, 3, 4, 5},
	}
	total := 0
	for subject, ms := range want {
		for _, m := range ms {
			if !Covered(subject, m) {
				t.Errorf("missing cell %s#%d", subject, m)
			}
			total++
		}
	}
	if got := len(All()); got != total {
		t.Errorf("scenarios = %d, want %d", got, total)
	}
	// Cells the paper leaves blank must stay blank.
	for _, blank := range []struct {
		subject string
		m       int
	}{{"OrbitDB", 2}, {"OrbitDB", 3}, {"OrbitDB", 4}, {"ReplicaDB", 2},
		{"ReplicaDB", 3}, {"ReplicaDB", 4}, {"ReplicaDB", 5},
		{"Yorkie", 2}, {"Yorkie", 3}, {"Yorkie", 4}, {"Roshi", 4}} {
		if Covered(blank.subject, blank.m) {
			t.Errorf("cell %s#%d should be blank", blank.subject, blank.m)
		}
	}
}

// TestEveryScenarioDetects runs each seeded scenario under ER-π's pruned
// exploration and requires the detector to fire — the RQ2 result.
func TestEveryScenarioDetects(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			s, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := runner.Run(s, runner.Config{
				Mode:             runner.ModeERPi,
				MaxInterleavings: 2000,
				StopOnViolation:  true,
				Assertions:       sc.NewAssertions(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.FirstViolation == 0 {
				t.Fatalf("misconception not detected in %d interleavings (exhausted=%v)",
					res.Explored, res.Exhausted)
			}
			t.Logf("detected at interleaving %d", res.FirstViolation)
		})
	}
}

// TestScenarioNames sanity-checks naming.
func TestScenarioNames(t *testing.T) {
	for _, sc := range All() {
		if sc.Name() == "" || sc.Seeding == "" {
			t.Errorf("scenario %+v missing name or seeding", sc)
		}
	}
	if len(Subjects()) != 5 {
		t.Error("five subjects expected")
	}
}

// TestResumeKeepsVerdicts cuts each scenario's exploration just before its
// first violation and resumes it in a new session with fresh detectors:
// the resumed run must report the uninterrupted run's FirstViolation and
// violations, which the cross-interleaving detectors can only do when the
// resume hands them the history they saw before the cut.
func TestResumeKeepsVerdicts(t *testing.T) {
	cut := 0
	for _, sc := range All() {
		t.Run(sc.Name(), func(t *testing.T) {
			s, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			run := func(ctx context.Context, dir *checkpoint.Dir, onOutcome func(*runner.Outcome)) *runner.Result {
				t.Helper()
				res, err := runner.RunContext(ctx, s, runner.Config{
					Mode:             runner.ModeERPi,
					MaxInterleavings: 200,
					Workers:          1,
					Assertions:       sc.NewAssertions(),
					Journal:          dir,
					OnOutcome:        onOutcome,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(context.Background(), nil, nil)
			if want.FirstViolation <= 1 {
				t.Skipf("first violation at %d: no cut before it", want.FirstViolation)
			}
			cut++
			dir, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer dir.Close()
			ctx, cancel := context.WithCancel(context.Background())
			seen := 0
			first := run(ctx, dir, func(*runner.Outcome) {
				if seen++; seen == want.FirstViolation-1 {
					cancel()
				}
			})
			cancel()
			if !first.Interrupted || first.FirstViolation != 0 {
				t.Fatalf("vacuous: the cut session ended interrupted=%v at first violation %d", first.Interrupted, first.FirstViolation)
			}
			got := run(context.Background(), dir, nil)
			if got.Resumed == 0 || got.FirstViolation != want.FirstViolation || !reflect.DeepEqual(violations(got), violations(want)) {
				t.Fatalf("resumed after %d records: first violation %d, %d violations; uninterrupted %d, %d",
					got.Resumed, got.FirstViolation, len(got.Violations), want.FirstViolation, len(want.Violations))
			}
		})
	}
	if cut == 0 {
		t.Fatal("vacuous: no scenario's first violation comes after index 1")
	}
}

func violations(r *runner.Result) []string {
	out := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		out = append(out, v.String())
	}
	return out
}
