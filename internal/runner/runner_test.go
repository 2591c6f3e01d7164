package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/crdt"
	"github.com/er-pi/erpi/internal/datalog"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
)

// lwwSetState adapts an LWW set to the replica.State interface: the town
// report app of the paper's motivating example, where issues are a
// replicated set.
type lwwSetState struct {
	set   *crdt.LWWSet
	clock *crdt.Clock
	ver   uint64
}

// StateVersion implements replica.Versioned so runner tests exercise the
// incremental snapshot path the way real subjects do.
func (s *lwwSetState) StateVersion() uint64 { return s.ver }

func newLWWSetState(rep string) *lwwSetState {
	return &lwwSetState{set: crdt.NewLWWSet(crdt.BiasAdd), clock: crdt.NewClock(rep)}
}

func (s *lwwSetState) Apply(op replica.Op) (string, error) {
	if op.Name != "set.read" {
		s.ver++
	}
	switch op.Name {
	case "set.add":
		s.set.Add(op.Args[0], s.clock.Now())
		return "", nil
	case "set.remove":
		if !s.set.Contains(op.Args[0]) {
			return "", replica.ErrFailedOp
		}
		s.set.Remove(op.Args[0], s.clock.Now())
		return "", nil
	case "set.read":
		return strings.Join(s.set.Elements(), ","), nil
	default:
		return "", errors.New("unknown op " + op.Name)
	}
}

func (s *lwwSetState) SyncPayload() ([]byte, error) {
	adds, rems := s.set.Dump()
	return json.Marshal(map[string]map[string]crdt.Time{"adds": adds, "rems": rems})
}

func (s *lwwSetState) ApplySync(payload []byte) error {
	s.ver++
	other := crdt.NewLWWSet(crdt.BiasAdd)
	var snap map[string]map[string]crdt.Time
	if err := json.Unmarshal(payload, &snap); err != nil {
		return err
	}
	for e, t := range snap["adds"] {
		other.Add(e, t)
	}
	for e, t := range snap["rems"] {
		other.Remove(e, t)
	}
	s.set.Merge(other)
	return nil
}

// lwwSnapshot is the checkpoint form: unlike the sync payload it carries
// the clock counter, so a restored state issues the same timestamps it
// would have issued when the snapshot was taken (the fidelity contract
// replica.State documents for mid-run prefix restores).
type lwwSnapshot struct {
	Adds  map[string]crdt.Time `json:"adds"`
	Rems  map[string]crdt.Time `json:"rems"`
	Clock uint64               `json:"clock"`
}

func (s *lwwSetState) Snapshot() ([]byte, error) {
	adds, rems := s.set.Dump()
	return json.Marshal(lwwSnapshot{Adds: adds, Rems: rems, Clock: s.clock.Counter()})
}

func (s *lwwSetState) Restore(snapshot []byte) error {
	s.ver++
	var snap lwwSnapshot
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		return err
	}
	s.set = crdt.NewLWWSet(crdt.BiasAdd)
	for e, t := range snap.Adds {
		s.set.Add(e, t)
	}
	for e, t := range snap.Rems {
		s.set.Remove(e, t)
	}
	s.clock.SetCounter(snap.Clock)
	return nil
}

func (s *lwwSetState) Fingerprint() string {
	return strings.Join(s.set.Elements(), ",")
}

// townReportScenario records the paper's §2.3 motivating example against
// live LWW-set states.
func townReportScenario(t *testing.T) Scenario {
	t.Helper()
	newCluster := func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": newLWWSetState("A"),
			"B": newLWWSetState("B"),
			"M": newLWWSetState("M"),
		}), nil
	}
	cluster, err := newCluster()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cluster)
	rec.Update("A", "set.add", "otb")    // ev0  ev_I
	rec.Sync("A", "B")                   // ev1  sync(ev_I)
	rec.Update("B", "set.add", "ph")     // ev2  ev_II
	rec.Sync("B", "A")                   // ev3  sync(ev_II)
	rec.Update("B", "set.remove", "otb") // ev4  ev_III
	rec.Sync("B", "A")                   // ev5  sync(ev_III)
	rec.Sync("A", "M")                   // ev6  ev_IV: transmit to municipality
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Name:       "townreport",
		Log:        log,
		NewCluster: newCluster,
		Pruning: prune.Config{
			Grouping:       prune.GroupSpec{Extra: [][]event.ID{{0, 1}, {2, 3}, {4, 5}}},
			TestedReplicas: []event.ReplicaID{"M"},
		},
	}
}

// municipalityInvariant: the municipality must receive only the pothole.
type municipalityInvariant struct{}

func (municipalityInvariant) Name() string { return "municipality-receives-only-ph" }
func (municipalityInvariant) Check(o *Outcome) error {
	if got := o.Fingerprints["M"]; got != "ph" {
		return errors.New("municipality received " + got)
	}
	return nil
}

func TestTownReportERPiFindsViolations(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{
		Mode:       ModeERPi,
		Assertions: []Assertion{municipalityInvariant{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("19 interleavings must be exhausted under the 10K cap")
	}
	if res.Explored != 19 {
		t.Fatalf("explored %d, want 19 (paper §3.1)", res.Explored)
	}
	if len(res.Violations) == 0 {
		t.Fatal("the erroneous-assumption interleavings must violate the invariant")
	}
	// The recording order itself is correct, so not every interleaving
	// violates.
	if len(res.Violations) == 19 {
		t.Fatal("the recorded (correct) interleaving must pass")
	}
	if res.FirstViolation == 0 {
		t.Fatal("FirstViolation must be set")
	}
}

func TestTownReportDFSFindsSameViolationsSlower(t *testing.T) {
	s := townReportScenario(t)
	erpi, err := Run(s, Config{Mode: ModeERPi, Assertions: []Assertion{municipalityInvariant{}}, StopOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := Run(s, Config{Mode: ModeDFS, Assertions: []Assertion{municipalityInvariant{}}, StopOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if erpi.FirstViolation == 0 || dfs.FirstViolation == 0 {
		t.Fatalf("both modes must find the bug: erpi=%d dfs=%d", erpi.FirstViolation, dfs.FirstViolation)
	}
	if erpi.FirstViolation > dfs.FirstViolation {
		t.Fatalf("ER-π (%d) should not need more interleavings than DFS (%d) here",
			erpi.FirstViolation, dfs.FirstViolation)
	}
}

func TestRandModeExploresDistinctOrders(t *testing.T) {
	s := townReportScenario(t)
	res, err := Run(s, Config{Mode: ModeRand, Seed: 3, MaxInterleavings: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != 50 {
		t.Fatalf("explored %d, want 50", res.Explored)
	}
	if res.RandShuffles < 50 {
		t.Fatalf("shuffles %d < explored", res.RandShuffles)
	}
}

// TestRunPersistsToStore: the record log is what persists a run's
// interleavings (paper §4.2, step 4). Loaded into the deductive store, its
// keys are exactly the explored interleavings.
func TestRunPersistsToStore(t *testing.T) {
	s := townReportScenario(t)
	dir, err := checkpoint.Open(filepath.Join(t.TempDir(), "session"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dir.Close() })
	res, err := Run(s, Config{Mode: ModeERPi, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dir.Records()
	if err != nil {
		t.Fatal(err)
	}
	store := datalog.NewStore()
	for _, r := range recs {
		il, err := parseKey(r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Record(il); err != nil {
			t.Fatal(err)
		}
	}
	if store.Count() != res.Explored {
		t.Fatalf("store has %d, explored %d", store.Count(), res.Explored)
	}
}

// TestRunCrashesOnBudget: a fact budget is a cap. The cap it works out to
// ends a DFS run short of its space, and a store with that budget admits
// exactly the interleavings the run explored, then refuses the next.
func TestRunCrashesOnBudget(t *testing.T) {
	const budget = 30 // a few interleavings of 7 events (8 facts each)
	s := townReportScenario(t)
	limit := budget / datalog.FactsPerInterleaving(s.Log.Len())
	var explored []string
	res, err := Run(s, Config{Mode: ModeDFS, Workers: 1, MaxInterleavings: limit,
		OnOutcome: func(o *Outcome) { explored = append(explored, o.Interleaving.Key()) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != limit || res.Exhausted || len(explored) != limit {
		t.Fatalf("explored %d (%d outcomes, exhausted %v), want the cap %d", res.Explored, len(explored), res.Exhausted, limit)
	}
	explorer, err := newExplorer(s, Config{Mode: ModeDFS}, s.Pruning)
	if err != nil {
		t.Fatal(err)
	}
	store := datalog.NewStore()
	store.MaxFacts = budget
	for i := 0; ; i++ {
		il, more := explorer.Next()
		if !more {
			t.Fatal("the space ran out before the budget")
		}
		err := store.Record(il)
		if i == limit {
			if !errors.Is(err, datalog.ErrBudgetExhausted) {
				t.Fatalf("interleaving %d past the cap: %v, want ErrBudgetExhausted", i+1, err)
			}
			break
		}
		if err != nil || il.Key() != explored[i] {
			t.Fatalf("interleaving %d: %v; stored %s, explored %s", i+1, err, il.Key(), explored[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Scenario{}, Config{}); err == nil {
		t.Fatal("empty scenario must be rejected")
	}
	s := townReportScenario(t)
	if _, err := Run(s, Config{Mode: "bogus"}); err == nil {
		t.Fatal("unknown mode must be rejected")
	}
	s2 := s
	s2.NewCluster = nil
	if _, err := Run(s2, Config{}); err == nil {
		t.Fatal("missing cluster factory must be rejected")
	}
}

// TestRetryBackoffDoesNotOverflow is the MaxRetries: 100 regression: the
// old `RetryBackoff << (attempts-1)` overflowed to a negative Duration
// around 63 doublings (far sooner for millisecond-scale bases), and the
// negative bound made the jitter draw panic. The delay must stay positive
// and capped for every attempt number a MaxRetries: 100 run can reach.
func TestRetryBackoffDoesNotOverflow(t *testing.T) {
	jitter := rand.New(rand.NewSource(1))
	for _, base := range []time.Duration{time.Millisecond, time.Second, time.Minute} {
		for attempt := 1; attempt <= 101; attempt++ {
			d := retryDelay(base, attempt, jitter)
			if d <= 0 {
				t.Fatalf("base %v attempt %d: non-positive delay %v", base, attempt, d)
			}
			if max := maxRetryBackoff + maxRetryBackoff/2; d > max {
				t.Fatalf("base %v attempt %d: delay %v beyond the jittered cap %v", base, attempt, d, max)
			}
		}
	}
	// The first few doublings below the cap keep the original schedule.
	noJitter := rand.New(rand.NewSource(1))
	for attempt, want := range map[int]time.Duration{1: time.Millisecond, 4: 8 * time.Millisecond} {
		got := retryDelay(time.Millisecond, attempt, noJitter)
		if got < want/2 || got > want+want/2 {
			t.Fatalf("attempt %d: delay %v outside ±50%% of %v", attempt, got, want)
		}
	}
}

func TestRecorderFailedOpIsRecorded(t *testing.T) {
	cluster := replica.NewCluster(map[event.ReplicaID]replica.State{
		"A": newLWWSetState("A"),
	})
	rec := NewRecorder(cluster)
	rec.Update("A", "set.remove", "ghost") // fails by constraint, still recorded
	rec.Update("A", "set.add", "x")
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Fatalf("log has %d events, want 2 (failed op included)", log.Len())
	}
}

func TestRecorderObserveReturnsIDAndValue(t *testing.T) {
	cluster := replica.NewCluster(map[event.ReplicaID]replica.State{
		"A": newLWWSetState("A"),
	})
	rec := NewRecorder(cluster)
	rec.Update("A", "set.add", "x")
	id, val := rec.Observe("A", "set.read")
	if id != 1 {
		t.Fatalf("observe ID = %d, want 1", id)
	}
	if val != "x" {
		t.Fatalf("observed %q", val)
	}
}

func TestOutcomeRecordsFailedOps(t *testing.T) {
	s := townReportScenario(t)
	var sawFailed bool
	_, err := Run(s, Config{
		Mode: ModeERPi,
		OnOutcome: func(o *Outcome) {
			if len(o.FailedOps) > 0 {
				sawFailed = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// In interleavings where the remove of "otb" executes before the otb
	// add synced to B, the remove fails by set constraint.
	if !sawFailed {
		t.Fatal("expected some interleaving to produce a failed op")
	}
}

// fmtSignature is the fmt-built signature behaviorSignature replaced: the
// reference its bytes are pinned to.
func fmtSignature(o *Outcome) string {
	var b strings.Builder
	reps := make([]string, 0, len(o.Fingerprints))
	for r := range o.Fingerprints {
		reps = append(reps, string(r))
	}
	sort.Strings(reps)
	for _, r := range reps {
		fmt.Fprintf(&b, "%s=%s;", r, o.Fingerprints[event.ReplicaID(r)])
	}
	obs := make([]int, 0, len(o.Observations))
	for id := range o.Observations {
		obs = append(obs, int(id))
	}
	sort.Ints(obs)
	for _, id := range obs {
		fmt.Fprintf(&b, "o%d=%s;", id, o.Observations[event.ID(id)])
	}
	for _, ids := range []struct {
		tag byte
		ids []event.ID
	}{{'f', o.FailedOps}, {'d', o.DroppedSyncs}} {
		sorted := make([]int, 0, len(ids.ids))
		for _, id := range ids.ids {
			sorted = append(sorted, int(id))
		}
		sort.Ints(sorted)
		for _, id := range sorted {
			fmt.Fprintf(&b, "%c%d;", ids.tag, id)
		}
	}
	return b.String()
}

// TestBehaviorSignatureMatchesFmtReference pins behaviorSignature byte for
// byte to fmtSignature: on engine outcomes with failed ops, observations
// and partition-dropped syncs, and on a hand-built outcome with
// multi-digit, unsorted and empty-valued entries.
func TestBehaviorSignatureMatchesFmtReference(t *testing.T) {
	var outcomes []*Outcome
	collect := func(o *Outcome) { outcomes = append(outcomes, o) }
	if _, err := Run(townReportScenario(t), Config{
		Mode:      ModeDFS,
		Workers:   1,
		Faults:    &fault.Schedule{Faults: []fault.Fault{{Kind: fault.Partition, A: "A", B: "B", At: 1, Duration: 2}}},
		OnOutcome: collect,
	}); err != nil {
		t.Fatal(err)
	}
	var finalized atomic.Int64
	claims := claimScenario(t, &finalized, func(rec *Recorder) {
		rec.Update("A", "claim", "x")
		rec.Observe("A", "read")
		rec.Update("A", "claim", "x")
		rec.Sync("A", "B")
		rec.Observe("B", "read")
	})
	if _, err := Run(claims, Config{Mode: ModeDFS, Workers: 1, OnOutcome: collect}); err != nil {
		t.Fatal(err)
	}
	outcomes = append(outcomes, &Outcome{
		Fingerprints: map[event.ReplicaID]string{"replica-10": "a=b;c", "B": "", "A": "x"},
		Observations: map[event.ID]string{123456: "v", 7: "", 40: "p;q=r"},
		FailedOps:    []event.ID{99, 3, 1000},
		DroppedSyncs: []event.ID{12, 5},
	}, &Outcome{})
	var failed, dropped, observed bool
	for _, o := range outcomes {
		if got, want := behaviorSignature(o), fmtSignature(o); got != want {
			t.Fatalf("#%d: signature %q, want %q", o.Index, got, want)
		}
		failed = failed || len(o.FailedOps) > 0
		dropped = dropped || len(o.DroppedSyncs) > 0
		observed = observed || len(o.Observations) > 0
	}
	if !failed || !dropped || !observed {
		t.Fatalf("outcomes cover failed ops %v, dropped syncs %v, observations %v; want all", failed, dropped, observed)
	}
	for _, id := range []event.ID{0, 9, 10, 99, 100, 123456, -1, -10} {
		if got, want := decimalLen(id), len(strconv.Itoa(int(id))); got != want {
			t.Fatalf("decimalLen(%d) = %d, want %d", id, got, want)
		}
	}
}
