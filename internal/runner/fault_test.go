package runner

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/replica"
)

// collectOutcomes runs the scenario and returns the serialized outcome
// stream plus the result.
func collectOutcomes(t *testing.T, s Scenario, cfg Config) ([]byte, *Result) {
	t.Helper()
	res, outcomes := exploreCollect(t, s, cfg, defaultRunLen)
	return []byte(streamOf(t, outcomes)), res
}

// TestFaultFreeScheduleIsSound pins the soundness property of the fault
// layer: a schedule containing no faults must produce byte-identical
// outcomes to the seed engine running without any injector at all.
func TestFaultFreeScheduleIsSound(t *testing.T) {
	for _, mode := range []Mode{ModeERPi, ModeDFS} {
		s := townReportScenario(t)
		plain, plainRes := collectOutcomes(t, s, Config{Mode: mode})
		faulted, faultedRes := collectOutcomes(t, s, Config{
			Mode:   mode,
			Faults: &fault.Schedule{Seed: 42},
		})
		if string(plain) != string(faulted) {
			t.Fatalf("mode %s: fault-free schedule changed outcomes", mode)
		}
		if plainRes.Explored != faultedRes.Explored || len(faultedRes.Quarantined) != 0 {
			t.Fatalf("mode %s: explored %d vs %d, quarantined %d",
				mode, plainRes.Explored, faultedRes.Explored, len(faultedRes.Quarantined))
		}
	}
}

// TestCrashRecoveryConverges pins the crash-recovery property: a replica
// crashed and restored mid-interleaving (losing its volatile state) must
// still converge with the others after Finalize's anti-entropy rounds.
func TestCrashRecoveryConverges(t *testing.T) {
	s := townReportScenario(t)
	s.Finalize = AntiEntropy(2)

	baseline, _ := collectOutcomes(t, s, Config{Mode: ModeERPi})

	var outcomes []*Outcome
	res, err := Run(s, Config{
		Mode: ModeERPi,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			// Crash A at position 3 of every interleaving with immediate
			// restart: all of A's volatile progress is lost.
			{Kind: fault.CrashReplica, Replica: "A", At: 3},
		}},
		OnOutcome: func(o *Outcome) { outcomes = append(outcomes, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("crash with immediate restart must not quarantine: %v", res.Quarantined)
	}
	if res.Explored != 19 || len(outcomes) != 19 {
		t.Fatalf("explored %d / %d outcomes, want 19", res.Explored, len(outcomes))
	}
	for _, o := range outcomes {
		if !o.Converged {
			t.Fatalf("interleaving #%d [%s] did not converge after crash-recovery: %v",
				o.Index, o.Interleaving.Key(), o.Fingerprints)
		}
	}
	// The fault was really injected: at least one interleaving converges to
	// a different state than the fault-free run (A's lost updates).
	crashed, err := json.Marshal(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if string(crashed) == string(baseline) {
		t.Fatal("crash schedule was observationally inert")
	}
}

// TestCrashQuarantineYieldsPartialResults is the acceptance scenario: a
// fault schedule that keeps one replica down mid-exploration must populate
// Result.Quarantined for the affected interleaving while the rest of the
// space is still explored — no abort.
func TestCrashQuarantineYieldsPartialResults(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{
		Mode: ModeERPi,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			// In exploration position 3 only: crash B at event 2 and keep
			// it down for the rest of the interleaving.
			{Kind: fault.CrashReplica, Replica: "B", Interleaving: 3, At: 2, Duration: 10},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != 19 || !res.Exhausted {
		t.Fatalf("explored %d (exhausted=%v), want the full 19", res.Explored, res.Exhausted)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined %d interleavings, want exactly 1: %v", len(res.Quarantined), res.Quarantined)
	}
	q := res.Quarantined[0]
	if q.Index != 3 {
		t.Fatalf("quarantined index = %d, want 3", q.Index)
	}
	if q.Attempts != 2 { // 1 attempt + the default 1 retry
		t.Fatalf("attempts = %d, want 2", q.Attempts)
	}
	if !errors.Is(q.Err, fault.ErrReplicaDown) {
		t.Fatalf("quarantine error = %v, want ErrReplicaDown", q.Err)
	}
	if !strings.Contains(q.String(), "quarantined after 2 attempts") {
		t.Fatalf("ExecError string = %q", q.String())
	}
}

// TestPayloadTruncationQuarantines: a truncated sync payload fails to
// decode at the receiver; the affected interleavings are quarantined and
// everything else still executes.
func TestPayloadTruncationQuarantines(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{
		Mode: ModeERPi,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			{Kind: fault.TruncatePayload, At: 1, KeepBytes: 2},
		}},
		MaxRetries: -1, // no point retrying a deterministic fault
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != 19 {
		t.Fatalf("explored %d, want 19", res.Explored)
	}
	if len(res.Quarantined) == 0 || len(res.Quarantined) == 19 {
		t.Fatalf("quarantined %d of 19 — truncation should hit only interleavings with a sync at position 1",
			len(res.Quarantined))
	}
	for _, q := range res.Quarantined {
		if q.Attempts != 1 {
			t.Fatalf("MaxRetries<0 must disable retries, got %d attempts", q.Attempts)
		}
	}
}

// TestPartitionDropsSyncs: syncs across a partitioned link are dropped and
// recorded, not errored — the message simply never arrives.
func TestPartitionDropsSyncs(t *testing.T) {
	s := townReportScenario(t)
	var dropped int
	res, err := Run(s, Config{
		Mode: ModeERPi,
		Faults: &fault.Schedule{Faults: []fault.Fault{
			// Sever A–M for the whole interleaving: the transmission to the
			// municipality (ev6) is always dropped.
			{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10},
		}},
		OnOutcome: func(o *Outcome) { dropped += len(o.DroppedSyncs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("partitions must not quarantine: %v", res.Quarantined)
	}
	if dropped != res.Explored {
		t.Fatalf("dropped %d syncs over %d interleavings, want one per interleaving", dropped, res.Explored)
	}
}

// TestRunHonorsCancellation: cancelling the context mid-exploration stops
// the run promptly with the partial Result.
func TestRunHonorsCancellation(t *testing.T) {
	s := townReportScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	res, err := RunContext(ctx, s, Config{
		Mode:    ModeDFS,
		Workers: 1,
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
	if !res.Interrupted {
		t.Fatal("cancelled run must report Interrupted")
	}
	if !errors.Is(res.InterruptErr, context.Canceled) {
		t.Fatalf("InterruptErr = %v", res.InterruptErr)
	}
	if res.Explored != 5 {
		t.Fatalf("explored %d, want exactly the 5 outcomes recorded before the cancel", res.Explored)
	}
}

// slowState delays every Apply, making wall-clock deadlines testable.
type slowState struct {
	*lwwSetState
	delay time.Duration
}

func (s *slowState) Apply(op replica.Op) (string, error) {
	time.Sleep(s.delay)
	return s.lwwSetState.Apply(op)
}

func slowScenario(t *testing.T, delay time.Duration) Scenario {
	t.Helper()
	s := townReportScenario(t)
	s.NewCluster = func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": &slowState{lwwSetState: newLWWSetState("A"), delay: delay},
			"B": &slowState{lwwSetState: newLWWSetState("B"), delay: delay},
			"M": &slowState{lwwSetState: newLWWSetState("M"), delay: delay},
		}), nil
	}
	return s
}

// TestRunDeadline: RunContext's context bounds the whole exploration; the
// run returns the partial result once its deadline passes.
func TestRunDeadline(t *testing.T) {
	s := slowScenario(t, 5*time.Millisecond)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, s, Config{Mode: ModeDFS})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("deadline expiry must report Interrupted")
	}
	if !errors.Is(res.InterruptErr, context.DeadlineExceeded) {
		t.Fatalf("InterruptErr = %v", res.InterruptErr)
	}
	if res.Explored == 0 {
		t.Fatal("some interleavings must complete before the deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run overran its deadline by far: %v", elapsed)
	}
}

// TestInterleavingTimeoutQuarantines: a single wedged interleaving is
// timed out and quarantined; the run itself keeps its progress.
func TestInterleavingTimeoutQuarantines(t *testing.T) {
	s := slowScenario(t, 30*time.Millisecond)
	res, err := Run(s, Config{
		Mode:                ModeERPi,
		MaxInterleavings:    2,
		InterleavingTimeout: 10 * time.Millisecond,
		MaxRetries:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("per-interleaving timeouts must not interrupt the run")
	}
	if len(res.Quarantined) != 2 {
		t.Fatalf("quarantined %d, want both slow interleavings", len(res.Quarantined))
	}
	for _, q := range res.Quarantined {
		if !errors.Is(q.Err, context.DeadlineExceeded) {
			t.Fatalf("quarantine error = %v, want DeadlineExceeded", q.Err)
		}
	}
}

// TestRetrySucceedsAfterTransientFault: a fault armed with probability
// strictly between 0 and 1 can miss on retry; more fundamentally, an error
// that stops recurring lets the retry path succeed without quarantine.
func TestRetrySucceedsAfterTransientFault(t *testing.T) {
	s := townReportScenario(t)
	// A state whose first ApplySync ever fails, then heals: attempt #1 of
	// interleaving #1 errors, the retry succeeds. The failure budget lives
	// outside the cluster factory so it survives resets.
	failures := 1
	s.NewCluster = func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": newLWWSetState("A"),
			"B": newLWWSetState("B"),
			"M": &flakyState{State: newLWWSetState("M"), failures: &failures},
		}), nil
	}
	// Workers: 1 — the shared failure budget above makes the cluster
	// factory unsafe for concurrent calls, and which execution trips the
	// single failure must stay deterministic.
	res, err := Run(s, Config{Mode: ModeERPi, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("transient failure must be absorbed by retry, got %v", res.Quarantined)
	}
	if res.Explored != 19 {
		t.Fatalf("explored %d, want 19", res.Explored)
	}
}

// flakyState fails ApplySync while *failures > 0, then behaves normally.
type flakyState struct {
	replica.State
	failures *int
}

func (f *flakyState) ApplySync(payload []byte) error {
	if *f.failures > 0 {
		*f.failures--
		return errors.New("transient sync failure")
	}
	return f.State.ApplySync(payload)
}

// TestLiveReportsAllReplicaErrors: when one replica crashes mid-replay,
// the other replicas' aborted turn-waits are reported too (errors.Join),
// not silently discarded.
func TestLiveReportsAllReplicaErrors(t *testing.T) {
	s := townReportScenario(t)
	il := interleave.Interleaving{0, 1, 2, 3, 4, 5, 6}
	inj, err := fault.NewInjector(fault.Schedule{Faults: []fault.Fault{
		{Kind: fault.CrashReplica, Replica: "B", At: 1, Duration: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gate := proxy.NewLocalGate()
	_, liveErr := ExecuteLiveContext(context.Background(), s, il,
		func(event.ReplicaID) proxy.TurnGate { return gate }, inj, nil)
	if liveErr == nil {
		t.Fatal("crashed live replay must error")
	}
	if !errors.Is(liveErr, fault.ErrReplicaDown) {
		t.Fatalf("error chain misses ErrReplicaDown: %v", liveErr)
	}
	// B fails at its first turn; A still owes ev3/ev5 and M owes ev6, so
	// at least one more replica reports its cancelled wait.
	if n := strings.Count(liveErr.Error(), "replica "); n < 2 {
		t.Fatalf("joined error reports %d replicas, want >= 2:\n%v", n, liveErr)
	}
}

// TestLiveCancellationUnblocksSequencer: a replay wedged inside
// Sequencer.WaitTurn (the shared counter never reaches the scheduled turn)
// returns promptly when the context deadline fires instead of hanging.
func TestLiveCancellationUnblocksSequencer(t *testing.T) {
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	coord, err := lockserver.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Wedge the schedule: the turn counter sits below every scheduled
	// turn, so WaitTurn polls forever.
	if err := coord.Set("wedged:turn", "-100"); err != nil {
		t.Fatal(err)
	}

	s := townReportScenario(t)
	il := interleave.Interleaving{0, 1, 2, 3, 6, 4, 5}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()

	var clients []*lockserver.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	start := time.Now()
	_, liveErr := ExecuteLiveContext(ctx, s, il, func(rep event.ReplicaID) proxy.TurnGate {
		c, err := lockserver.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		return lockserver.NewSequencer(c, "wedged:turn", time.Millisecond)
	}, nil, nil)
	elapsed := time.Since(start)
	if liveErr == nil {
		t.Fatal("wedged replay must error on context expiry")
	}
	if !errors.Is(liveErr, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded in the chain", liveErr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the replay hung", elapsed)
	}
}
