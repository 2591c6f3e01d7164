package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
)

// TestParallelDeterminismPin is the acceptance pin for the parallel
// engine: the same scenario + seed at Workers: 1 and Workers: 8 must
// yield identical Explored counts, violation sets, FirstViolation, and
// byte-identical outcome streams.
func TestParallelDeterminismPin(t *testing.T) {
	run := func(workers int) ([]byte, *Result) {
		s := townReportScenario(t)
		return collectOutcomes(t, s, Config{
			Mode:       ModeERPi,
			Workers:    workers,
			Assertions: []Assertion{municipalityInvariant{}},
		})
	}
	seq, seqRes := run(1)
	par, parRes := run(8)
	if string(seq) != string(par) {
		t.Fatal("Workers: 8 changed the outcome stream")
	}
	assertResultsMatch(t, seqRes, parRes)
	if len(seqRes.Violations) == 0 {
		t.Fatal("pin is vacuous: the scenario must produce violations")
	}
}

// TestParallelDeterminismUnderFaults extends the pin to a fault schedule
// mixing a deterministic crash, an interleaving-selected crash (which
// quarantines), and a probabilistically armed partition: arming is keyed
// by exploration index, so every worker count reproduces the same chaos.
func TestParallelDeterminismUnderFaults(t *testing.T) {
	sched := &fault.Schedule{Seed: 11, Faults: []fault.Fault{
		// Crash A at position 3 with immediate restart: volatile loss only.
		{Kind: fault.CrashReplica, Replica: "A", At: 3},
		// Interleaving 4 only: B stays down, so index 4 quarantines.
		{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 2, Duration: 10},
		// Coin-flip partition of the municipality link per interleaving.
		{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10, Prob: 0.5},
	}}
	run := func(workers int) ([]byte, *Result) {
		s := townReportScenario(t)
		s.Finalize = AntiEntropy(2)
		return collectOutcomes(t, s, Config{
			Mode:       ModeERPi,
			Workers:    workers,
			Seed:       7,
			Faults:     sched,
			Assertions: []Assertion{municipalityInvariant{}},
		})
	}
	seq, seqRes := run(1)
	par, parRes := run(8)
	if string(seq) != string(par) {
		t.Fatal("Workers: 8 changed the outcome stream under faults")
	}
	assertResultsMatch(t, seqRes, parRes)
	if len(seqRes.Quarantined) != 1 || seqRes.Quarantined[0].Index != 4 {
		t.Fatalf("pin is vacuous: want exactly interleaving 4 quarantined, got %v", seqRes.Quarantined)
	}
	// The probabilistic fault must actually vary across interleavings,
	// otherwise the arming-determinism half of the pin proves nothing.
	s := townReportScenario(t)
	partitioned := 0
	res, err := Run(s, Config{
		Mode:    ModeERPi,
		Workers: 1,
		Faults: &fault.Schedule{Seed: 11, Faults: []fault.Fault{
			{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10, Prob: 0.5},
		}},
		OnOutcome: func(o *Outcome) {
			if len(o.DroppedSyncs) > 0 {
				partitioned++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if partitioned == 0 || partitioned == res.Explored {
		t.Fatalf("Prob=0.5 partition fired in %d/%d interleavings — not probabilistic",
			partitioned, res.Explored)
	}
}

// TestParallelStopOnViolation: with StopOnViolation, the pool must report
// the same first violation and truncate Explored to it, discarding any
// speculative work past that index.
func TestParallelStopOnViolation(t *testing.T) {
	run := func(workers int) *Result {
		s := townReportScenario(t)
		res, err := Run(s, Config{
			Mode:            ModeERPi,
			Workers:         workers,
			Assertions:      []Assertion{municipalityInvariant{}},
			StopOnViolation: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	assertResultsMatch(t, seq, par)
	if len(par.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1 with StopOnViolation", len(par.Violations))
	}
	if par.Explored != par.FirstViolation {
		t.Fatalf("exploration must stop at the violation: %d vs %d", par.Explored, par.FirstViolation)
	}
	if par.Exhausted {
		t.Fatal("a stopped run must not report exhaustion")
	}
}

// TestParallelRandMode: ModeRand pulls from one seeded explorer on the
// coordinator, so the explored orders (and even the shuffle count, absent
// early stopping) match the sequential engine exactly.
func TestParallelRandMode(t *testing.T) {
	run := func(workers int) ([]byte, *Result) {
		s := townReportScenario(t)
		return collectOutcomes(t, s, Config{
			Mode:             ModeRand,
			Workers:          workers,
			Seed:             3,
			MaxInterleavings: 50,
		})
	}
	seq, seqRes := run(1)
	par, parRes := run(8)
	if string(seq) != string(par) {
		t.Fatal("Workers: 8 changed ModeRand's outcome stream")
	}
	assertResultsMatch(t, seqRes, parRes)
	if seqRes.RandShuffles != parRes.RandShuffles {
		t.Fatalf("shuffles diverged: %d vs %d", seqRes.RandShuffles, parRes.RandShuffles)
	}
}

// TestParallelRepruningParity: the ConstraintPoll quiesce barrier must
// poll at the same boundaries as the sequential engine, yielding the same
// shrunken exploration.
func TestParallelRepruningParity(t *testing.T) {
	run := func(workers int) *Result {
		s := townReportScenario(t)
		s.Pruning.TestedReplicas = nil
		delivered := false
		res, err := Run(s, Config{
			Mode:      ModeERPi,
			Workers:   workers,
			PollEvery: 5,
			ConstraintPoll: func() (pcfg prune.Config, found bool, err error) {
				if delivered {
					return pcfg, false, nil
				}
				delivered = true
				pcfg.TestedReplicas = append(pcfg.TestedReplicas, "M")
				return pcfg, true, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	assertResultsMatch(t, seq, par)
	if !par.Exhausted || par.Explored >= 24 {
		t.Fatalf("re-pruning parity is vacuous: explored %d (exhausted=%v)", par.Explored, par.Exhausted)
	}
}

// TestParallelCancellation: a context cancelled from the outcome hook
// stops the pool at exactly the results recorded so far.
func TestParallelCancellation(t *testing.T) {
	s := townReportScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	res, err := RunContext(ctx, s, Config{
		Mode:    ModeDFS,
		Workers: 8,
		OnOutcome: func(o *Outcome) {
			seen++
			if seen == 5 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || !errors.Is(res.InterruptErr, context.Canceled) {
		t.Fatalf("interrupted=%v err=%v", res.Interrupted, res.InterruptErr)
	}
	if res.Explored != 5 {
		t.Fatalf("explored %d, want exactly the 5 outcomes processed before the cancel", res.Explored)
	}
}

// TestParallelWorkerSetupFailure: a cluster factory that cannot build a
// worker's private cluster fails the whole run.
func TestParallelWorkerSetupFailure(t *testing.T) {
	s := townReportScenario(t)
	setupErr := errors.New("no replicas available")
	s.NewCluster = func() (*replica.Cluster, error) { return nil, setupErr }
	_, err := Run(s, Config{Mode: ModeERPi, Workers: 4})
	if err == nil || !errors.Is(err, setupErr) {
		t.Fatalf("worker setup failure must fail the run, got %v", err)
	}
}

// assertResultsMatch compares every deterministic Result field between a
// sequential and a parallel run of the same exploration.
func assertResultsMatch(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.Explored != par.Explored {
		t.Fatalf("Explored: %d vs %d", seq.Explored, par.Explored)
	}
	if seq.FirstViolation != par.FirstViolation {
		t.Fatalf("FirstViolation: %d vs %d", seq.FirstViolation, par.FirstViolation)
	}
	if seq.Exhausted != par.Exhausted {
		t.Fatalf("exhausted %v/%v", seq.Exhausted, par.Exhausted)
	}
	if !reflect.DeepEqual(violationKeys(seq), violationKeys(par)) {
		t.Fatalf("violation sets differ:\nseq: %v\npar: %v", violationKeys(seq), violationKeys(par))
	}
	if !reflect.DeepEqual(quarantineKeys(seq), quarantineKeys(par)) {
		t.Fatalf("quarantine sets differ:\nseq: %v\npar: %v", quarantineKeys(seq), quarantineKeys(par))
	}
}

func violationKeys(r *Result) []string {
	out := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		out = append(out, v.String())
	}
	return out
}

func quarantineKeys(r *Result) []string {
	out := make([]string, 0, len(r.Quarantined))
	for _, q := range r.Quarantined {
		out = append(out, q.String())
	}
	return out
}
