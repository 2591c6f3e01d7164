package coordinator

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/runner"
)

// ledgerView is what every driver must agree on for one workload: the
// fields the shared runner.Ledger accounts, plus the keyed outcome digest.
type ledgerView struct {
	Explored       int
	FirstViolation int
	Violations     []string
	Quarantined    int
	Exhausted      bool
	Digest         string
	// Trajectory is the fuzz corpus trajectory digest (in-process drivers
	// only: a coordinator job drops its corpus at completion).
	Trajectory string
}

// driverCase is one row of the table. spec is what a coordinator job can
// carry; local, when set, adds the in-process-only knobs (faults, dynamic
// re-pruning) and keeps the row off the coordinator.
type driverCase struct {
	name  string
	spec  JobSpec
	local func(s *runner.Scenario, cfg *runner.Config)
	// vacuous names what the Workers 1 run must have exercised for the row
	// to mean anything ("" when it did).
	vacuous func(res *runner.Result) string
}

// pollBoundary is both PollEvery and the index the fault schedule below
// quarantines: the first poll boundary yields no outcome, and the
// constraints still arrive at its poll, as at any other boundary.
const pollBoundary = 3

func driverCases() []driverCase {
	base := JobSpec{Bug: "Roshi-1", Mode: "erpi", RangeSize: 1}
	stop := base
	stop.StopOnViolation = true
	// The violation lands inside the second range, so the coordinator must
	// stop at the record, not at the end of the range.
	stopMidRange := stop
	stopMidRange.RangeSize = 16
	// Three generations of 8 end exactly at the cap of 24, so the last one
	// still evolves the corpus.
	fuzz := JobSpec{Bug: "Roshi-1", Mode: "fuzz", Seed: 7, FuzzGenerationSize: 8, MaxInterleavings: 24, RangeSize: 4}
	violated := func(res *runner.Result) string {
		if res.FirstViolation == 0 {
			return "the workload must violate its assertion"
		}
		return ""
	}
	return []driverCase{
		{name: "plain", spec: base, vacuous: violated},
		{name: "stop-on-violation", spec: stop, vacuous: violated},
		{name: "stop-on-violation-mid-range", spec: stopMidRange, vacuous: func(res *runner.Result) string {
			if res.FirstViolation%stopMidRange.RangeSize == 0 || len(res.Violations) != 1 {
				return fmt.Sprintf("want one violation inside a range of %d, got %d at %d",
					stopMidRange.RangeSize, len(res.Violations), res.FirstViolation)
			}
			return ""
		}},
		{name: "fuzz-generation-at-cap", spec: fuzz, vacuous: func(res *runner.Result) string {
			if gens := fuzz.MaxInterleavings / fuzz.FuzzGenerationSize; res.Explored != fuzz.MaxInterleavings || res.Fuzz.Generations != gens {
				return fmt.Sprintf("explored %d with %d generations evolved, want the cap %d and all %d",
					res.Explored, res.Fuzz.Generations, fuzz.MaxInterleavings, gens)
			}
			return ""
		}},
		{name: "seeded-faults", spec: base, local: func(s *runner.Scenario, cfg *runner.Config) {
			cfg.Seed = 7
			cfg.Faults = &fault.Schedule{Seed: 11, Faults: []fault.Fault{
				{Kind: fault.CrashReplica, Replica: "A", At: 3},
				{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 2, Duration: 20},
				{Kind: fault.Partition, A: "A", B: "C", At: 0, Duration: 20, Prob: 0.5},
			}}
		}, vacuous: func(res *runner.Result) string {
			if len(res.Quarantined) == 0 {
				return "the schedule must quarantine an interleaving"
			}
			return ""
		}},
		{name: "re-prune-past-quarantined-boundary", spec: base, local: func(s *runner.Scenario, cfg *runner.Config) {
			tested := s.Pruning.TestedReplicas
			s.Pruning.TestedReplicas = nil
			cfg.Faults = &fault.Schedule{Faults: []fault.Fault{
				{Kind: fault.CrashReplica, Replica: "B", Interleaving: pollBoundary, At: 1, Duration: 20},
			}}
			cfg.PollEvery = pollBoundary
			delivered := false
			cfg.ConstraintPoll = func() (pcfg prune.Config, found bool, err error) {
				if delivered {
					return pcfg, false, nil
				}
				delivered = true
				pcfg.TestedReplicas = tested
				return pcfg, true, nil
			}
		}, vacuous: func(res *runner.Result) string {
			if len(res.Quarantined) != 1 || res.Quarantined[0].Index != pollBoundary || !res.Exhausted {
				return fmt.Sprintf("want exactly the poll boundary %d quarantined and the re-pruned space exhausted, got %v (exhausted=%v)",
					pollBoundary, res.Quarantined, res.Exhausted)
			}
			return ""
		}},
		// A fact budget is a cap (Figure 10); this one lands inside the
		// third range.
		{name: "store-budget-crash", spec: JobSpec{Bug: "Roshi-1", Mode: "dfs", MaxInterleavings: 7, RangeSize: 3}, vacuous: func(res *runner.Result) string {
			if res.Explored != 7 || res.Exhausted {
				return fmt.Sprintf("want the cap of 7 short of the space, got explored %d exhausted=%v", res.Explored, res.Exhausted)
			}
			return ""
		}},
	}
}

// runInProcess drives the case through runner.Run with the given worker
// shape and reduces the Result to the shared view.
func runInProcess(t *testing.T, c driverCase, workers, liveWorkers int) (ledgerView, *runner.Result) {
	t.Helper()
	s, asserts, err := c.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDigest()
	cfg := runner.Config{
		Mode:               runner.Mode(c.spec.Mode),
		Seed:               c.spec.Seed,
		MaxInterleavings:   c.spec.MaxInterleavings,
		FuzzGenerationSize: c.spec.FuzzGenerationSize,
		StopOnViolation:    c.spec.StopOnViolation,
		Assertions:         asserts,
		Workers:            workers,
		LiveWorkers:        liveWorkers,
		OnOutcome:          d.Observe,
	}
	if c.local != nil {
		c.local(&s, &cfg)
	}
	res, err := runner.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := ledgerView{
		Explored:       res.Explored,
		FirstViolation: res.FirstViolation,
		Quarantined:    len(res.Quarantined),
		Exhausted:      res.Exhausted,
		Digest:         d.Sum(),
	}
	for _, viol := range res.Violations {
		v.Violations = append(v.Violations,
			fmt.Sprintf("%d %s %s %v", viol.Index, viol.Interleaving.Key(), viol.Assertion, viol.Err))
	}
	if res.Fuzz != nil {
		v.Trajectory = res.Fuzz.TrajectoryDigest
	}
	return v, res
}

// runCoordinator drives the case through a coordinator service with one
// local worker.
func runCoordinator(t *testing.T, c driverCase) ledgerView {
	t.Helper()
	svc := startService(t, Options{LeaseTTL: 500 * time.Millisecond})
	j, err := svc.Submit(c.spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w1", Once: true}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done (%+v)", st.State, st)
	}
	v := ledgerView{
		Explored:       st.Explored,
		FirstViolation: st.FirstViolation,
		Quarantined:    st.Quarantined,
		Exhausted:      st.Exhausted,
		Digest:         st.Digest,
	}
	for _, viol := range st.Violations {
		v.Violations = append(v.Violations,
			fmt.Sprintf("%d %s %s %s", viol.Index, viol.Key, viol.Assertion, viol.Error))
	}
	return v
}

// TestDriversShareOneLedger runs the same workloads through every way of
// driving the engine — inline (Workers 1), pooled (Workers 8), live
// sessions (LiveWorkers 2) and a coordinator with one local worker — and
// requires the same ledger view from each. The drivers differ only in how
// results reach runner.Ledger, so any disagreement is a dispatch or
// ordering bug, not a second copy of the accounting drifting.
func TestDriversShareOneLedger(t *testing.T) {
	for _, c := range driverCases() {
		t.Run(c.name, func(t *testing.T) {
			want, res := runInProcess(t, c, 1, 0)
			if why := c.vacuous(res); why != "" {
				t.Fatalf("vacuous: %s", why)
			}
			pooled, _ := runInProcess(t, c, 8, 0)
			if !reflect.DeepEqual(want, pooled) {
				t.Fatalf("Workers 8 diverged from Workers 1:\n got  %+v\n want %+v", pooled, want)
			}
			live, _ := runInProcess(t, c, 0, 2)
			if !reflect.DeepEqual(want, live) {
				t.Fatalf("LiveWorkers 2 diverged from Workers 1:\n got  %+v\n want %+v", live, want)
			}
			if c.local != nil {
				return
			}
			dist := runCoordinator(t, c)
			dist.Trajectory = want.Trajectory
			if !reflect.DeepEqual(want, dist) {
				t.Fatalf("coordinator diverged from Workers 1:\n got  %+v\n want %+v", dist, want)
			}
		})
	}
}

// TestRePruneSkipsSubsumedBoundary pins that a poll boundary whose
// interleaving was subsumed is not skipped (the name is from when it
// was): ConstraintPoll is called exactly once per multiple of PollEvery
// the run reaches, whatever the index produced, so when re-pruning
// happens does not depend on which avoidance layers are on. It runs at
// Workers 1, where the subsumed set is deterministic.
func TestRePruneSkipsSubsumedBoundary(t *testing.T) {
	s, _, err := (&JobSpec{Bug: "Roshi-1"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	// Grouping only: a larger pruned space, so subsumption has work to do.
	s.Pruning = prune.Config{Grouping: s.Pruning.Grouping}
	run := func(pollEvery int) (outcomes map[int]bool, polls int, res *runner.Result) {
		outcomes = make(map[int]bool)
		cfg := runner.Config{
			Mode:             runner.ModeERPi,
			Workers:          1,
			MaxInterleavings: 200,
			SubsumptionTable: 1 << 20,
			OnOutcome:        func(o *runner.Outcome) { outcomes[o.Index] = true },
		}
		if pollEvery > 0 {
			cfg.PollEvery = pollEvery
			cfg.ConstraintPoll = func() (prune.Config, bool, error) {
				polls++
				return prune.Config{}, false, nil
			}
		}
		res, err := runner.Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcomes, polls, res
	}
	// Find the first subsumed index, then make it the poll boundary.
	seen, _, probed := run(0)
	boundary := 0
	for i := 2; i <= probed.Explored && boundary == 0; i++ {
		if !seen[i] {
			boundary = i
		}
	}
	if boundary == 0 {
		t.Fatalf("vacuous: nothing subsumed in %d interleavings", probed.Explored)
	}
	outcomes, polls, res := run(boundary)
	if outcomes[boundary] {
		t.Fatalf("vacuous: boundary %d executed; the subsumed set moved", boundary)
	}
	if want := res.Explored / boundary; polls != want {
		t.Fatalf("ConstraintPoll ran %d times, want %d: once per multiple of %d (%d explored, %d subsumed)",
			polls, want, boundary, res.Explored, res.Subsumed)
	}
	if res.Subsumed != probed.Subsumed || res.Explored != probed.Explored {
		t.Fatalf("polling changed the accounting: %d/%d vs %d/%d subsumed/explored",
			res.Subsumed, res.Explored, probed.Subsumed, probed.Explored)
	}
}
