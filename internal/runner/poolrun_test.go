package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// exploreCollect is collectOutcomes under a run-length rule: the result,
// and the outcome stream in delivery order.
func exploreCollect(t *testing.T, s Scenario, cfg Config, runLen func(left, workers int) int) (*Result, []*Outcome) {
	t.Helper()
	var outcomes []*Outcome
	cfg.OnOutcome = func(o *Outcome) { outcomes = append(outcomes, o) }
	res, err := explore(context.Background(), s, cfg, runLen, defaultPrefixSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	return res, outcomes
}

func streamOf(t *testing.T, outcomes []*Outcome) string {
	t.Helper()
	raw, err := json.Marshal(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPoolRunCutsDoNotChangeResults: where the pool cuts its runs is a
// scheduling decision and nothing else. Every configuration whose carve has
// a boundary of its own — the cap, a StopOnViolation, a ConstraintPoll
// barrier whose boundary index yields no outcome, a fuzz generation ending
// exactly at the cap, index-keyed faults, a fact budget's cap short of the
// space, the avoidance layers — gives the Workers 1 result at every run length and
// worker count.
func TestPoolRunCutsDoNotChangeResults(t *testing.T) {
	// Each case runs once per (run length, workers) and returns the result
	// plus a rendering of whatever else must not move.
	cases := []struct {
		name string
		run  func(t *testing.T, workers int, runLen func(left, workers int) int) (*Result, string)
	}{
		{"plain", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			res, outcomes := exploreCollect(t, townReportScenario(t), Config{
				Mode: ModeDFS, Workers: workers, MaxInterleavings: 150,
				Assertions: []Assertion{municipalityInvariant{}},
			}, runLen)
			if len(res.Violations) == 0 || res.Explored != 150 {
				t.Fatalf("vacuous: %d violations in %d interleavings", len(res.Violations), res.Explored)
			}
			return res, streamOf(t, outcomes)
		}},
		{"stop-on-violation", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			res, outcomes := exploreCollect(t, townReportScenario(t), Config{
				Mode: ModeDFS, Workers: workers, StopOnViolation: true,
				Assertions: []Assertion{municipalityInvariant{}},
			}, runLen)
			if res.FirstViolation < 2 || res.Explored != res.FirstViolation {
				t.Fatalf("vacuous: first violation %d, explored %d", res.FirstViolation, res.Explored)
			}
			// Outcomes past the stop were never delivered.
			return res, streamOf(t, outcomes)
		}},
		{"reprune-quarantined-boundary", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			s := townReportScenario(t)
			s.Pruning.TestedReplicas = nil
			polls := 0
			res, outcomes := exploreCollect(t, s, Config{
				Mode: ModeERPi, Workers: workers, PollEvery: 4,
				// Index 4, the first poll boundary, quarantines: B goes down
				// for the rest of it.
				Faults: &fault.Schedule{Faults: []fault.Fault{
					{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 0, Duration: 10},
				}},
				ConstraintPoll: func() (pcfg prune.Config, found bool, err error) {
					polls++
					if polls > 1 {
						return pcfg, false, nil
					}
					pcfg.TestedReplicas = append(pcfg.TestedReplicas, "M")
					return pcfg, true, nil
				},
			}, runLen)
			if len(res.Quarantined) != 1 || res.Quarantined[0].Index != 4 {
				t.Fatalf("vacuous: want exactly the boundary index 4 quarantined, got %v", res.Quarantined)
			}
			if !res.Exhausted || res.Explored >= 24 {
				t.Fatalf("vacuous: re-pruning did not shrink the space: explored %d", res.Explored)
			}
			return res, fmt.Sprintf("polls=%d %s", polls, streamOf(t, outcomes))
		}},
		{"fuzz-generation-ends-at-cap", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			res, outcomes := exploreCollect(t, townReportScenario(t), Config{
				Mode: ModeFuzz, Workers: workers, Seed: 5,
				FuzzGenerationSize: 4, MaxInterleavings: 12,
			}, runLen)
			if res.Explored != 12 || res.Fuzz.Generations < 2 {
				t.Fatalf("vacuous: explored %d over %d generations", res.Explored, res.Fuzz.Generations)
			}
			return res, fmt.Sprintf("%+v %s", *res.Fuzz, streamOf(t, outcomes))
		}},
		{"seeded-faults", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			s := townReportScenario(t)
			s.Finalize = AntiEntropy(2)
			res, outcomes := exploreCollect(t, s, Config{
				Mode: ModeERPi, Workers: workers, Seed: 7,
				Faults: &fault.Schedule{Seed: 11, Faults: []fault.Fault{
					{Kind: fault.CrashReplica, Replica: "A", At: 3},
					{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 2, Duration: 10},
					{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10, Prob: 0.5},
				}},
				Assertions: []Assertion{municipalityInvariant{}},
			}, runLen)
			if len(res.Quarantined) != 1 {
				t.Fatalf("vacuous: quarantined %v", res.Quarantined)
			}
			return res, streamOf(t, outcomes)
		}},
		{"store-budget-crash", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			res, outcomes := exploreCollect(t, townReportScenario(t), Config{
				Mode: ModeDFS, Workers: workers, MaxInterleavings: 41,
			}, runLen)
			if res.Exhausted || res.Explored != 41 {
				t.Fatalf("vacuous: exhausted=%v explored=%d", res.Exhausted, res.Explored)
			}
			return res, streamOf(t, outcomes)
		}},
		{"prefix-cache+subsumption", func(t *testing.T, workers int, runLen func(int, int) int) (*Result, string) {
			res, outcomes := exploreCollect(t, townReportScenario(t), Config{
				Mode: ModeDFS, Workers: workers, MaxInterleavings: 400,
				PrefixCacheBytes: 1 << 20, SubsumptionTable: 1 << 20,
			}, runLen)
			if res.Subsumed == 0 {
				t.Fatal("vacuous: nothing subsumed")
			}
			// Which interleavings are subsumed varies with timing; the
			// deduplicated signature set does not.
			set := make(map[string]bool)
			for _, o := range outcomes {
				set[behaviorSignature(o)] = true
			}
			sigs := make([]string, 0, len(set))
			for sig := range set {
				sigs = append(sigs, sig)
			}
			sort.Strings(sigs)
			return res, strings.Join(sigs, "\n")
		}},
	}
	runLens := []struct {
		name string
		fn   func(left, workers int) int
	}{
		{"1", func(int, int) int { return 1 }},
		{"3", func(int, int) int { return 3 }},
		{"16", func(int, int) int { return 16 }},
		{"everything-left", func(left, _ int) int { return left }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq, seqRest := c.run(t, 1, defaultRunLen)
			for _, rl := range runLens {
				for _, workers := range []int{2, 8} {
					par, parRest := c.run(t, workers, rl.fn)
					assertResultsMatch(t, seq, par)
					if parRest != seqRest {
						t.Fatalf("run length %s, Workers %d: diverged from Workers 1:\n%s\nvs\n%s",
							rl.name, workers, parRest, seqRest)
					}
				}
			}
		})
	}
}

// headGate blocks the one execution whose applied arguments, in order,
// spell target — interleaving 1 of addsScenario — until release closes.
type headGate struct {
	target  string
	once    *sync.Once
	blocked chan struct{}
	release chan struct{}
}

// gatedState is one replica of a gated cluster; trace is shared by the
// cluster's replicas (one executor, one goroutine).
type gatedState struct {
	*lwwSetState
	gate  *headGate
	trace *[]string
}

func (s *gatedState) Apply(op replica.Op) (string, error) {
	res, err := s.lwwSetState.Apply(op)
	*s.trace = append(*s.trace, op.Args[0])
	if len(*s.trace) == addsEvents {
		if strings.Join(*s.trace, ",") == s.gate.target {
			s.gate.once.Do(func() { close(s.gate.blocked) })
			<-s.gate.release
		}
		*s.trace = (*s.trace)[:0]
	}
	return res, err
}

const addsEvents = 6

// addsScenario is addsEvents independent updates, each adding its own
// element, so an execution's applied arguments identify its interleaving.
// newState wraps each replica's state (nil: as is).
func addsScenario(t *testing.T, gate *headGate) Scenario {
	t.Helper()
	ids := []event.ReplicaID{"A", "B", "M"}
	newCluster := func() (*replica.Cluster, error) {
		states := make(map[event.ReplicaID]replica.State)
		trace := new([]string)
		for _, id := range ids {
			states[id] = &gatedState{lwwSetState: newLWWSetState(string(id)), gate: gate, trace: trace}
		}
		return replica.NewCluster(states), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cluster)
	for i := 0; i < addsEvents; i++ {
		rec.Update(ids[i%len(ids)], "set.add", fmt.Sprintf("x%d", i))
	}
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Name: "adds", Log: log, NewCluster: newCluster}
}

// TestPoolStalledHeadIsBounded: while index 1 hangs, the other workers
// carve and execute ahead of it, but only up to the carve-ahead bound —
// runsAhead runs per worker — and every result they park is recorded once
// the head moves. The reorder-window gauge never exceeds the bound and is
// back at 0 when the run ends.
func TestPoolStalledHeadIsBounded(t *testing.T) {
	const (
		runLength = 3
		limit     = 120
	)
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			bound := int64(runsAhead * workers * runLength)
			gate := &headGate{once: new(sync.Once), blocked: make(chan struct{}), release: make(chan struct{})}
			// While recording the scenario and running the reference nothing
			// matches an empty target.
			s := addsScenario(t, gate)
			seq, seqOutcomes := exploreCollect(t, s, Config{Mode: ModeDFS, Workers: 1, MaxInterleavings: limit}, defaultRunLen)
			first := make([]string, 0, addsEvents)
			for _, id := range seqOutcomes[0].Interleaving {
				first = append(first, s.Log.Event(id).Args[0])
			}
			gate.target = strings.Join(first, ",")

			reg := telemetry.New()
			parked := reg.Gauge("runner.pool_parked")
			var recorded, executed atomic.Int64
			stalled := make(chan struct{})
			s.Finalize = func(*replica.Cluster) error {
				if p := parked.Value(); p > bound {
					t.Errorf("runner.pool_parked = %d, above the bound %d", p, bound)
				}
				// Everything carved but the head's own run has executed: the
				// other workers now find the window full.
				if executed.Add(1) == bound-runLength {
					close(stalled)
				}
				return nil
			}
			var outcomes []*Outcome
			cfg := Config{
				Mode: ModeDFS, Workers: workers, MaxInterleavings: limit, Telemetry: reg,
				OnOutcome: func(o *Outcome) {
					outcomes = append(outcomes, o)
					recorded.Add(1)
				},
			}
			// Called under the pool's mutex each time a run is carved — the
			// only moment carved-but-unrecorded grows.
			runLen := func(left, _ int) int {
				if ahead := int64(limit-left) - recorded.Load() + runLength; ahead > bound {
					t.Errorf("carving %d indices ahead of the ledger, bound %d", ahead, bound)
				}
				return runLength
			}
			var res *Result
			var runErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, runErr = explore(context.Background(), s, cfg, runLen, defaultPrefixSnapshotEvery)
			}()
			// No path out of the test leaves the run behind.
			release := sync.OnceFunc(func() { close(gate.release) })
			defer func() {
				release()
				<-done
			}()
			for _, ev := range []<-chan struct{}{gate.blocked, stalled} {
				select {
				case <-ev:
				case <-done:
					t.Fatalf("run ended without stalling: %+v %v", res, runErr)
				case <-time.After(30 * time.Second):
					t.Fatal("the head never stalled the pool")
				}
			}
			if got := reg.Counter("runner.pool_runs").Value() * runLength; got != bound {
				t.Fatalf("%d indices carved behind a stalled head, want exactly the bound %d", got, bound)
			}
			if n := recorded.Load(); n != 0 {
				t.Fatalf("%d results recorded past a stalled index 1", n)
			}
			release()
			<-done
			if runErr != nil {
				t.Fatal(runErr)
			}
			assertResultsMatch(t, seq, res)
			if streamOf(t, outcomes) != streamOf(t, seqOutcomes) {
				t.Fatal("releasing the head did not deliver the Workers 1 outcome stream")
			}
			if p := parked.Value(); p != 0 {
				t.Fatalf("runner.pool_parked = %d after the run, want 0", p)
			}
			if runs := reg.Counter("runner.pool_runs").Value(); runs != limit/runLength {
				t.Fatalf("runner.pool_runs = %d, want %d", runs, limit/runLength)
			}
			snap := reg.Progress().Snapshot()
			if snap.PoolParked != 0 || snap.PoolRuns != limit/runLength {
				t.Fatalf("/progress shows %d parked over %d runs", snap.PoolParked, snap.PoolRuns)
			}
		})
	}
}

// TestPoolParkedGaugeSettlesAfterStop: results a stop discards are not left
// on the reorder-window gauge, and while the run lasts it stays within the
// default rule's bound.
func TestPoolParkedGaugeSettlesAfterStop(t *testing.T) {
	const workers = 8
	reg := telemetry.New()
	parked := reg.Gauge("runner.pool_parked")
	s := townReportScenario(t)
	s.Finalize = func(*replica.Cluster) error {
		if p := parked.Value(); p > runsAhead*workers*maxRun {
			t.Errorf("runner.pool_parked = %d, above the bound %d", p, runsAhead*workers*maxRun)
		}
		return nil
	}
	res, err := Run(s, Config{
		Mode: ModeDFS, Workers: workers, Telemetry: reg, StopOnViolation: true,
		Assertions: []Assertion{municipalityInvariant{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstViolation == 0 {
		t.Fatal("vacuous: the run must stop on a violation")
	}
	if p := parked.Value(); p != 0 {
		t.Fatalf("runner.pool_parked = %d after a stopped run, want 0", p)
	}
	if p := reg.Progress().Snapshot().PoolParked; p != 0 {
		t.Fatalf("/progress shows %d parked after a stopped run", p)
	}
}

// TestPoolBuildsNoExecutorWithoutWork: a worker sets up its cluster after
// its first carve, so a short exploration on a wide pool builds at most one
// cluster per interleaving, not one per worker.
func TestPoolBuildsNoExecutorWithoutWork(t *testing.T) {
	s := townReportScenario(t)
	newCluster := s.NewCluster
	var built atomic.Int64
	s.NewCluster = func() (*replica.Cluster, error) {
		built.Add(1)
		return newCluster()
	}
	res, err := Run(s, Config{Mode: ModeERPi, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n == 0 || n > int64(res.Explored) {
		t.Fatalf("%d clusters built for %d interleavings on 64 workers", n, res.Explored)
	}
}

// TestExploredSeenMatchesKey pins seen(il) to the rendered key: the same
// fingerprints — so keys resumed from a journal match the interleavings
// met live — the same answers as a set of key strings, and no allocation.
func TestExploredSeenMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	byKey, direct := map[string]bool{}, exploredSet{}
	dups := 0
	for i := 0; i < 2000; i++ {
		il := make(interleave.Interleaving, 1+rng.Intn(12))
		for j := range il {
			// Few distinct values, so duplicates occur; several digit counts.
			il[j] = event.ID(rng.Intn(4) * []int{1, 7, 130, 40001}[rng.Intn(4)])
		}
		if fingerprintOf(il) != fingerprint(il.Key()) {
			t.Fatalf("fingerprintOf(%v) differs from fingerprint(%q)", il, il.Key())
		}
		want := byKey[il.Key()]
		if want {
			dups++
		}
		byKey[il.Key()] = true
		if got := direct.seen(il); got != want {
			t.Fatalf("step %d: seen(%v) = %v, key seen = %v", i, il, got, want)
		}
	}
	if dups == 0 || len(direct) != len(byKey) {
		t.Fatalf("%d repeats, %d fingerprints for %d keys", dups, len(direct), len(byKey))
	}
	il := interleave.Interleaving{12, 0, 7, 130, 5, 40001}
	if n := testing.AllocsPerRun(100, func() { direct.seen(il) }); n != 0 {
		t.Fatalf("seen allocates %v times per call", n)
	}
}
