package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/replica"
)

// liveSignatures runs the scenario through the live pool and returns the
// outcome-signature stream in coordinator delivery order.
func liveSignatures(t *testing.T, s Scenario, cfg Config) ([]string, *Result) {
	t.Helper()
	var sigs []string
	cfg.OnOutcome = func(o *Outcome) { sigs = append(sigs, OutcomeSignature(o)) }
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sigs, res
}

// TestLivePoolDeterminismPin is the acceptance pin for the sharded live
// engine: LiveWorkers 1 and 8 must match each other byte-for-byte AND
// match a hand-rolled sequential ExecuteLive loop over the same
// exploration — the live pool may not change what the live path computes.
func TestLivePoolDeterminismPin(t *testing.T) {
	run := func(workers int) ([]string, *Result) {
		s := townReportScenario(t)
		return liveSignatures(t, s, Config{
			Mode:        ModeERPi,
			LiveWorkers: workers,
			Assertions:  []Assertion{municipalityInvariant{}},
		})
	}
	one, oneRes := run(1)
	eight, eightRes := run(8)
	if strings.Join(one, "\n") != strings.Join(eight, "\n") {
		t.Fatal("LiveWorkers: 8 changed the live outcome stream")
	}
	assertResultsMatch(t, oneRes, eightRes)
	if len(oneRes.Violations) == 0 {
		t.Fatal("pin is vacuous: the scenario must produce violations")
	}

	// The sequential ExecuteLive reference over the same pruned order.
	s := townReportScenario(t)
	ex, err := NewPrunedExplorer(s)
	if err != nil {
		t.Fatal(err)
	}
	var ref []string
	for {
		il, ok := ex.Next()
		if !ok {
			break
		}
		gate := proxy.NewLocalGate()
		o, err := ExecuteLive(s, il, func(event.ReplicaID) proxy.TurnGate { return gate })
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, OutcomeSignature(o))
	}
	if strings.Join(one, "\n") != strings.Join(ref, "\n") {
		t.Fatal("live pool diverged from the sequential ExecuteLive loop")
	}
}

// syncPairScenario is the smallest log with a paired sync: one update and
// an explicit send/exec exchange, over two replicas.
func syncPairScenario(t *testing.T) Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": newLWWSetState("A"),
			"B": newLWWSetState("B"),
		}), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cluster)
	rec.Update("A", "set.add", "x") // ev0
	rec.SyncPair("A", "B")          // ev1 send, ev2 exec
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Name: "syncpair", Log: log, NewCluster: newCluster}
}

// replicaHolds: the replica must end with exactly this fingerprint.
type replicaHolds struct {
	rep  event.ReplicaID
	want string
}

func (a replicaHolds) Name() string { return "replica-holds" }
func (a replicaHolds) Check(o *Outcome) error {
	if got := o.Fingerprints[a.rep]; got != a.want {
		return errors.New(string(a.rep) + " holds " + got)
	}
	return nil
}

// TestLivePoolMatchesCheckpointedEngine: both schedules drive one event
// step, so over the same exploration — with or without faults — the live
// pool and the checkpointed engine must agree on every field of every
// outcome, on every deterministic Result field, and on the fuzz corpus.
func TestLivePoolMatchesCheckpointedEngine(t *testing.T) {
	type schedule struct {
		name   string
		faults *fault.Schedule
		// finalize runs an anti-entropy round after each interleaving.
		finalize bool
	}
	// The caps keep the table to a second or two: uncapped, DFS walks 5040
	// orders of townreport, and ModeFuzz burns its 100k-retry bound once a
	// generation asks for more children than the grouped space has left
	// (24 orders of townreport, 2 of syncpair).
	scenarios := []struct {
		name            string
		build           func(*testing.T) Scenario
		assertion       Assertion
		dfsCap, fuzzCap int
		fuzzGeneration  int
		truncate, chaos []fault.Fault
	}{
		{
			name: "townreport", build: townReportScenario, assertion: municipalityInvariant{},
			dfsCap: 60, fuzzCap: 16, fuzzGeneration: 8,
			// Position 4 executes a standalone sync in some orders only.
			truncate: []fault.Fault{{Kind: fault.TruncatePayload, At: 4, KeepBytes: 2}},
			// TestLivePoolDeterminismUnderFaults' schedule, plus an A–B
			// partition that drops several syncs of one interleaving, so
			// DroppedSyncs has an order to disagree on.
			chaos: []fault.Fault{
				{Kind: fault.CrashReplica, Replica: "A", At: 3},
				{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 2, Duration: 10},
				{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10, Prob: 0.5},
				{Kind: fault.Partition, A: "A", B: "B", At: 0, Duration: 10, Prob: 0.5},
			},
		},
		{
			name: "syncpair", build: syncPairScenario, assertion: replicaHolds{rep: "B", want: "x"},
			fuzzCap: 2, fuzzGeneration: 2,
			// Position 2 executes the paired exec in two of the six orders.
			truncate: []fault.Fault{{Kind: fault.TruncatePayload, At: 2, KeepBytes: 1}},
			chaos: []fault.Fault{
				{Kind: fault.CrashReplica, Replica: "A", At: 1},
				{Kind: fault.CrashReplica, Replica: "B", Interleaving: 2, At: 0, Duration: 10},
				{Kind: fault.Partition, A: "A", B: "B", At: 0, Duration: 10, Prob: 0.5},
			},
		},
	}
	fields := []struct {
		name string
		get  func(*Outcome) any
	}{
		{"Index", func(o *Outcome) any { return o.Index }},
		{"Interleaving", func(o *Outcome) any { return o.Interleaving }},
		{"Fingerprints", func(o *Outcome) any { return o.Fingerprints }},
		{"Observations", func(o *Outcome) any { return o.Observations }},
		{"FailedOps", func(o *Outcome) any { return o.FailedOps }},
		{"DroppedSyncs", func(o *Outcome) any { return o.DroppedSyncs }},
		{"Converged", func(o *Outcome) any { return o.Converged }},
		{"FaultArmed", func(o *Outcome) any { return o.FaultArmed }},
	}

	for _, sc := range scenarios {
		schedules := []schedule{
			{name: "no-faults"},
			{name: "truncate", faults: &fault.Schedule{Faults: sc.truncate}},
			{name: "chaos", faults: &fault.Schedule{Seed: 11, Faults: sc.chaos}, finalize: true},
		}
		modes := []struct {
			mode Mode
			cap  int
		}{{ModeERPi, 0}, {ModeDFS, sc.dfsCap}, {ModeFuzz, sc.fuzzCap}}
		for _, sched := range schedules {
			for _, m := range modes {
				t.Run(sc.name+"/"+sched.name+"/"+string(m.mode), func(t *testing.T) {
					run := func(live bool) ([]*Outcome, *Result) {
						s := sc.build(t)
						if sched.finalize {
							s.Finalize = AntiEntropy(2)
						}
						var outcomes []*Outcome
						cfg := Config{
							Mode:               m.mode,
							Seed:               3,
							MaxInterleavings:   m.cap,
							FuzzGenerationSize: sc.fuzzGeneration,
							Workers:            1,
							Faults:             sched.faults,
							Assertions:         []Assertion{sc.assertion},
							RetryBackoff:       100 * time.Microsecond,
							OnOutcome:          func(o *Outcome) { outcomes = append(outcomes, o) },
						}
						if live {
							cfg.LiveWorkers = 2
						}
						res, err := Run(s, cfg)
						if err != nil {
							t.Fatal(err)
						}
						return outcomes, res
					}
					ckpt, ckptRes := run(false)
					live, liveRes := run(true)
					if len(ckpt) == 0 {
						t.Fatal("case is vacuous: the checkpointed engine produced no outcome")
					}
					if len(live) != len(ckpt) {
						t.Errorf("outcomes: %d checkpointed vs %d live", len(ckpt), len(live))
					}
					// Per field, the first outcome the two engines disagree on.
					for _, f := range fields {
						for i := 0; i < len(ckpt) && i < len(live); i++ {
							if c, l := f.get(ckpt[i]), f.get(live[i]); !reflect.DeepEqual(c, l) {
								t.Errorf("%s of outcome %d (#%d [%s]): checkpointed %v, live %v",
									f.name, i, ckpt[i].Index, ckpt[i].Interleaving.Key(), c, l)
								break
							}
						}
					}
					if !reflect.DeepEqual(ckptRes.Fuzz, liveRes.Fuzz) {
						t.Errorf("fuzz corpus differs:\ncheckpointed: %+v\nlive:         %+v", ckptRes.Fuzz, liveRes.Fuzz)
					}
					// Quarantine error text is the one thing the schedules report
					// differently by design: the gated one joins every replica's
					// error, cancelled turn waits included, around the step's own.
					for i := 0; i < len(ckptRes.Quarantined) && i < len(liveRes.Quarantined); i++ {
						c, l := &ckptRes.Quarantined[i], &liveRes.Quarantined[i]
						if c.Index == l.Index && !strings.Contains(l.Err.Error(), c.Err.Error()) {
							t.Errorf("quarantine #%d: live error %q does not carry the step's %q", c.Index, l.Err, c.Err)
						}
						c.Err, l.Err = nil, nil
					}
					assertResultsMatch(t, ckptRes, liveRes)
				})
			}
		}
	}
}

// TestLivePoolDeterminismUnderFaults extends the pin to a seeded fault
// schedule: arming is keyed by exploration index, so every live session
// count reproduces the same chaos, including the quarantined interleaving.
func TestLivePoolDeterminismUnderFaults(t *testing.T) {
	sched := &fault.Schedule{Seed: 11, Faults: []fault.Fault{
		{Kind: fault.CrashReplica, Replica: "A", At: 3},
		{Kind: fault.CrashReplica, Replica: "B", Interleaving: 4, At: 2, Duration: 10},
		{Kind: fault.Partition, A: "A", B: "M", At: 0, Duration: 10, Prob: 0.5},
	}}
	run := func(workers int) ([]string, *Result) {
		s := townReportScenario(t)
		s.Finalize = AntiEntropy(2)
		return liveSignatures(t, s, Config{
			Mode:         ModeERPi,
			LiveWorkers:  workers,
			Seed:         7,
			Faults:       sched,
			Assertions:   []Assertion{municipalityInvariant{}},
			RetryBackoff: 100 * time.Microsecond,
		})
	}
	one, oneRes := run(1)
	eight, eightRes := run(8)
	if strings.Join(one, "\n") != strings.Join(eight, "\n") {
		t.Fatal("LiveWorkers: 8 changed the live outcome stream under faults")
	}
	assertResultsMatch(t, oneRes, eightRes)
	if len(oneRes.Quarantined) != 1 || oneRes.Quarantined[0].Index != 4 {
		t.Fatalf("pin is vacuous: want exactly interleaving 4 quarantined, got %v", oneRes.Quarantined)
	}
}

// TestLivePoolSurvivesLockServerOutage: a mid-run lock-server restart —
// with every session's turn counters and mutexes wiped — must not corrupt
// the run. Wedged attempts time out, retries mint fresh fenced epochs
// against the restarted server, and the outcome stream stays identical to
// an undisturbed sequential live replay.
func TestLivePoolSurvivesLockServerOutage(t *testing.T) {
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srv2 *lockserver.Server
	defer func() {
		_ = srv.Close()
		if srv2 != nil {
			_ = srv2.Close()
		}
	}()

	const slice = 10
	s := townReportScenario(t)
	var sigs []string
	bounced := false
	res, err := Run(s, Config{
		Mode:                ModeDFS,
		LiveWorkers:         2,
		MaxInterleavings:    slice,
		MaxRetries:          8,
		RetryBackoff:        time.Millisecond,
		InterleavingTimeout: 2 * time.Second,
		LiveGates: func(worker int) (SessionFactory, error) {
			p := proxy.NewDistPool(addr, "outage", worker, 5*time.Second)
			return func() (LiveSession, error) { return p.Session(), nil }, nil
		},
		OnOutcome: func(o *Outcome) {
			sigs = append(sigs, OutcomeSignature(o))
			if len(sigs) == 3 && !bounced {
				bounced = true
				// Kill the server mid-run and restart it empty on the same
				// address: every live session's distributed state vanishes.
				_ = srv.Close()
				srv2 = lockserver.NewServer(lockserver.NewStore())
				if _, err := srv2.Listen(addr); err != nil {
					t.Errorf("relisten on %s: %v", addr, err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bounced {
		t.Fatal("test is vacuous: the outage never happened")
	}
	if res.Explored != slice {
		t.Fatalf("explored %d, want %d", res.Explored, slice)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("outage must heal via retries, not quarantine: %v", res.Quarantined)
	}

	ils := interleave.Collect(interleave.NewDFS(interleave.NewSpace(s.Log)), slice)
	for i, il := range ils {
		gate := proxy.NewLocalGate()
		o, err := ExecuteLive(s, il, func(event.ReplicaID) proxy.TurnGate { return gate })
		if err != nil {
			t.Fatal(err)
		}
		if sigs[i] != OutcomeSignature(o) {
			t.Fatalf("interleaving %d diverged after the outage", i)
		}
	}
}

// closableGate wraps LocalGate with a Close recorder, standing in for a
// distributed session whose lock-server state must be released on teardown.
type closableGate struct {
	*proxy.LocalGate
	closed atomic.Bool
}

func (g *closableGate) Close() error {
	g.closed.Store(true)
	return nil
}

// failingSession is a LiveSession whose gate factory may refuse a replica.
type failingSession func(rep event.ReplicaID) (proxy.TurnGate, error)

func (s failingSession) Gate(rep event.ReplicaID) (proxy.TurnGate, error) { return s(rep) }
func (s failingSession) Close() error                                     { return nil }

// TestLiveSetupFailureReleasesEarlierGates pins the cleanup bugfix: when
// the gate factory fails for a later replica, the gates already minted
// for earlier replicas must still be closed — an early return may not
// leave a session's distributed locks armed until TTL expiry.
func TestLiveSetupFailureReleasesEarlierGates(t *testing.T) {
	s := townReportScenario(t)
	il := interleave.Interleaving{0, 1, 2, 3, 4, 5, 6}
	first := &closableGate{LocalGate: proxy.NewLocalGate()}
	calls := 0
	boom := errors.New("no gate for you")
	x, err := newExecutor(s, Config{LiveGates: func(int) (SessionFactory, error) {
		return func() (LiveSession, error) {
			return failingSession(func(event.ReplicaID) (proxy.TurnGate, error) {
				calls++
				if calls == 1 {
					return first, nil
				}
				return nil, boom
			}), nil
		}, nil
	}}, 0, telemetryOff, nil, true, defaultPrefixSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	_, err = x.attempt(context.Background(), workItem{index: 1, il: il, pivot: -1})
	if !errors.Is(err, boom) {
		t.Fatalf("live attempt = %v; want the gate factory error", err)
	}
	if calls < 2 {
		t.Fatalf("gate factory called %d times; scenario needs >= 2 replicas", calls)
	}
	if !first.closed.Load() {
		t.Fatal("earlier replica's gate not closed after a later gate failure")
	}
}

// TestLivePoolFuzzClampsToOneWorker: corpus feedback is order-dependent,
// so ModeFuzz must clamp the live pool to one session like it clamps the
// checkpointed pool.
func TestLivePoolFuzzClampsToOneWorker(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{
		Mode:             ModeFuzz,
		Seed:             3,
		LiveWorkers:      8,
		MaxInterleavings: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(townReportScenario(t), Config{
		Mode:             ModeFuzz,
		Seed:             3,
		MaxInterleavings: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != ref.Explored {
		t.Fatalf("fuzz under LiveWorkers 8 diverged: explored %d vs %d", res.Explored, ref.Explored)
	}
}
