package coordinator

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// TestJobSpecWireRoundTrip pins the spec's wire coverage mechanically: the
// fixture sets every JobSpec field to a nonzero value (enforced by
// reflection, so adding a field without extending the fixture fails), and
// the JSON round trip must reproduce it exactly — a field missing its json
// tag, or tagged "-", deserializes to zero and breaks DeepEqual. This is
// the test that failed before Subsumption/SubsumptionTableBytes were wired
// through spec.go, and it fails again the next time a Config knob is added
// without wire coverage.
func TestJobSpecWireRoundTrip(t *testing.T) {
	fixture := JobSpec{
		Bug:                   "Roshi-1",
		Miscon:                "CRDTs#4", // mutually exclusive with Bug for validate, fine on the wire
		Mode:                  "dfs",
		Seed:                  42,
		FuzzGenerationSize:    16,
		MaxInterleavings:      96,
		RangeSize:             8,
		StopOnViolation:       true,
		MaxRetries:            3,
		InterleavingTimeoutMs: 250,
		Subsumption:           true,
		SubsumptionTableBytes: 1 << 20,
	}

	v := reflect.ValueOf(fixture)
	tp := v.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if v.Field(i).IsZero() {
			t.Errorf("JobSpec.%s: fixture leaves it zero — set it so the round trip actually covers it", f.Name)
		}
		if tag, ok := f.Tag.Lookup("json"); !ok || tag == "-" || tag == "" {
			t.Errorf("JobSpec.%s: missing json tag — field will not survive the hello handshake or manifest", f.Name)
		}
	}

	data, err := json.Marshal(fixture)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(fixture, back) {
		t.Fatalf("spec did not survive the wire:\n sent %+v\n got  %+v", fixture, back)
	}
}

// TestRunnerConfigDistributionCoverage forces a decision whenever
// runner.Config grows a field: every field must be categorized as either
// honored by workers (execConfig must set it from a JobSpec field),
// owned by the coordinator side (enumeration/aggregation), or deliberately
// not distributed. An uncategorized field fails the test, so a new
// exploration knob cannot silently default to "workers ignore it" the way
// SubsumptionTable briefly did.
func TestRunnerConfigDistributionCoverage(t *testing.T) {
	honoredByWorker := map[string]bool{
		// Set by JobSpec.execConfig; changing these changes what each
		// worker executes, so they MUST travel on the wire.
		"Mode":                true,
		"Seed":                true,
		"MaxRetries":          true,
		"InterleavingTimeout": true,
		"SubsumptionTable":    true,
	}
	coordinatorSide := map[string]bool{
		// Enumeration and aggregation happen on the coordinator; workers
		// never see these.
		"MaxInterleavings": true, // carve-time cap
		"StopOnViolation":  true, // assertions checked in aggregation order
		"Assertions":       true,
		"OnOutcome":        true, // digest/violation aggregation
		"Journal":          true, // the record log, owned by the job
		"Telemetry":        true, // Options.Telemetry on the service
		// Forensic bundles are captured on the coordinator's aggregation
		// path (the job's runner.Ledger re-executes locally), never by
		// workers — violations are only known after aggregation.
		"ForensicDir":        true,
		"MaxForensicBundles": true,
		// Fuzz generations are carved, classified, and evolved on the
		// coordinator (JobSpec.FuzzGenerationSize → exploreConfig); workers
		// just execute the leased children.
		"FuzzGenerationSize": true,
	}
	notDistributed := map[string]bool{
		// Per-process or order-dependent machinery the distributed path
		// deliberately replaces or does not (yet) ship to workers.
		"Workers":          true, // pool parallelism — replaced by worker fleet
		"LiveWorkers":      true, // live replay path is not distributed
		"LiveGates":        true,
		"Store":            true, // datalog budget experiment, local only
		"ConstraintPoll":   true, // dynamic re-pruning is coordinator-local
		"PollEvery":        true,
		"Deadline":         true, // job lifetime is lease-managed instead
		"RetryBackoff":     true, // workers use the runner default
		"Faults":           true, // fault schedules not distributed
		"MaxExploredKeys":  true, // dedup owned by the journal
		"PrefixCacheBytes": true, // per-worker accelerator, not spec-driven
	}

	tp := reflect.TypeOf(runner.Config{})
	for i := 0; i < tp.NumField(); i++ {
		name := tp.Field(i).Name
		n := 0
		for _, set := range []map[string]bool{honoredByWorker, coordinatorSide, notDistributed} {
			if set[name] {
				n++
			}
		}
		switch n {
		case 1:
		case 0:
			t.Errorf("runner.Config.%s is uncategorized: decide whether workers honor it "+
				"(add a JobSpec field + execConfig wiring), the coordinator owns it, or it is "+
				"deliberately not distributed — then record it here", name)
		default:
			t.Errorf("runner.Config.%s appears in %d categories, want exactly 1", name, n)
		}
	}
}

// sequentialSignatureSet runs the spec in-process and returns the
// deduplicated outcome-signature set — the invariant subsumption preserves.
// (The interleaving-keyed Digest is NOT preserved: subsumed interleavings
// contribute no digest entry, which is exactly why parity is asserted on
// the signature set instead.)
func sequentialSignatureSet(t *testing.T, spec JobSpec) []string {
	t.Helper()
	scenario, _, err := spec.build()
	if err != nil {
		t.Fatalf("build scenario: %v", err)
	}
	set := make(map[string]struct{})
	_, err = runner.Run(scenario, runner.Config{
		Mode:             runner.Mode(spec.Mode),
		Seed:             spec.Seed,
		MaxInterleavings: spec.MaxInterleavings,
		Workers:          1,
		OnOutcome: func(o *runner.Outcome) {
			set[runner.OutcomeSignature(o)] = struct{}{}
		},
	})
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestDistributedSubsumptionParity runs the same job with subsumption on:
// the cap accounting must be unchanged (subsumed interleavings consume
// indices and journal entries exactly like executed ones), some
// interleavings must actually be subsumed, the deduplicated signature set
// must equal the sequential baseline's, and the subsumed count must
// survive a coordinator restart via the manifest.
func TestDistributedSubsumptionParity(t *testing.T) {
	baseline := testSpec()
	_, wantExplored := sequentialBaseline(t, baseline)
	wantSigs := sequentialSignatureSet(t, baseline)

	spec := testSpec()
	spec.Subsumption = true

	root := t.TempDir()
	reg := telemetry.New()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond, Telemetry: reg})
	j, err := svc.Submit(spec)
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
	if st.Explored != wantExplored {
		t.Fatalf("explored = %d, want %d (subsumed interleavings must still consume the cap)", st.Explored, wantExplored)
	}
	if st.Subsumed == 0 {
		t.Fatal("subsumed = 0: the worker never pruned, so the spec field did not reach runner.Config")
	}
	if st.Subsumed >= st.Explored {
		t.Fatalf("subsumed = %d of %d explored: at least one interleaving must execute as a witness", st.Subsumed, st.Explored)
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0 (ErrSubsumed must not be treated as an execution error)", st.Quarantined)
	}
	jobDir := filepath.Join(root, j.ID())
	assertUniqueKeys(t, journalKeys(t, jobDir), wantExplored)

	// The durable records carry the parity proof: subsumed records have no
	// signature, executed records' deduplicated signatures must equal the
	// sequential baseline set.
	lines := jobRecords(t, jobDir)
	subsumedLines := 0
	gotSet := make(map[string]struct{})
	for _, line := range lines {
		if line.Subsumed {
			subsumedLines++
			if line.Sig != "" || line.Error != "" {
				t.Fatalf("subsumed line %d carries sig=%q error=%q, want neither", line.Index, line.Sig, line.Error)
			}
			continue
		}
		if line.Error == "" {
			gotSet[line.Sig] = struct{}{}
		}
	}
	if subsumedLines != st.Subsumed {
		t.Fatalf("the record log has %d subsumed records, status says %d", subsumedLines, st.Subsumed)
	}
	gotSigs := make([]string, 0, len(gotSet))
	for s := range gotSet {
		gotSigs = append(gotSigs, s)
	}
	sort.Strings(gotSigs)
	if !reflect.DeepEqual(gotSigs, wantSigs) {
		t.Fatalf("signature set diverged under subsumption:\n got  %v\n want %v", gotSigs, wantSigs)
	}

	if got := reg.Snapshot().Counters["coordinator.subsumed"]; got != int64(st.Subsumed) {
		t.Fatalf("coordinator.subsumed counter = %d, want %d", got, st.Subsumed)
	}

	// Restart the coordinator: the finished job's subsumed count must be
	// restored from the manifest, and a fresh (unfinished-looking) replay
	// of results.log must classify subsumed lines as subsumed, not as
	// digest entries or quarantines.
	jobID := j.ID()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	svc2 := startService(t, Options{JournalRoot: root})
	if err := svc2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j2, ok := svc2.Job(jobID)
	if !ok {
		t.Fatalf("job %s not recovered", jobID)
	}
	st2 := j2.Status()
	if st2.State != StateDone || st2.Subsumed != st.Subsumed || st2.Explored != st.Explored {
		t.Fatalf("restart lost subsumption accounting: got state=%s explored=%d subsumed=%d, want done/%d/%d",
			st2.State, st2.Explored, st2.Subsumed, st.Explored, st.Subsumed)
	}
}

// TestResumeReplaysSubsumedLines exercises the mid-job resume path (no
// terminal manifest): a worker crashes partway through a subsumption-on
// job, the coordinator restarts and rebuilds its counters from results.log
// — subsumed lines must replay into the subsumed counter, not the digest
// or the quarantine count — and a second worker finishes the job with the
// cap honored exactly.
func TestResumeReplaysSubsumedLines(t *testing.T) {
	baseline := testSpec()
	_, wantExplored := sequentialBaseline(t, baseline)

	spec := testSpec()
	spec.Subsumption = true

	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 300 * time.Millisecond})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	jobID := j.ID()
	// Crash after enough executions that some committed range contains a
	// subsumed interleaving (pruning needs recorded frontiers to fire).
	err = RunWorker(context.Background(), WorkerOptions{
		Addr:                 svc.Addr(),
		Name:                 "doomed",
		CrashAfterExecutions: 40,
	})
	if err == nil {
		t.Fatal("doomed worker finished the whole job; raise the cap or lower the crash point")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	svc2 := startService(t, Options{JournalRoot: root, LeaseTTL: 300 * time.Millisecond})
	if err := svc2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j2, ok := svc2.Job(jobID)
	if !ok {
		t.Fatalf("job %s not recovered", jobID)
	}
	mid := j2.Status()
	if mid.Resumed == 0 {
		t.Fatal("resumed = 0: crash landed before any commit; tune CrashAfterExecutions")
	}
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc2.Addr(), Name: "finisher", Once: true}); err != nil {
		t.Fatalf("finisher: %v", err)
	}
	st := waitDone(t, j2)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done (%+v)", st.State, st)
	}
	if st.Explored != wantExplored {
		t.Fatalf("explored = %d, want %d (resume must neither lose nor double-count subsumed entries)", st.Explored, wantExplored)
	}
	if st.Subsumed == 0 {
		t.Fatal("subsumed = 0 after resume")
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0 (replayed subsumed lines must not be misread as quarantines)", st.Quarantined)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, jobID)), wantExplored)
}
