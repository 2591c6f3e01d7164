package coordinator

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/telemetry"
)

// killAt arranges for the job's directory to be copied into a fresh
// journal root the nth time its aggregator reaches boundary b — the files
// as a SIGKILL at that instant would leave them: what was handed to the
// kernel is there, what sat in a user-space buffer is not. (The pattern of
// internal/checkpoint/crash_test.go, one layer up.) The returned root is
// populated once the job has passed that point.
func killAt(t *testing.T, j *Job, b aggBoundary, n int) (root string) {
	t.Helper()
	root = t.TempDir()
	hits := 0
	j.mu.Lock()
	j.crashPoint = func(at aggBoundary) {
		if at != b {
			return
		}
		if hits++; hits != n {
			return
		}
		dst := filepath.Join(root, j.ID())
		if err := os.Mkdir(dst, 0o755); err != nil {
			t.Error(err)
			return
		}
		entries, err := os.ReadDir(j.journal.Path())
		if err != nil {
			t.Error(err)
			return
		}
		for _, e := range entries {
			if !e.Type().IsRegular() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(j.journal.Path(), e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
			}
			if err != nil {
				t.Error(err)
			}
		}
	}
	j.mu.Unlock()
	return root
}

// TestAggregatorCrashOrder kills the coordinator at each boundary of a
// group commit — committed and acknowledged but not yet aggregated, and
// the batch's records written but not synced (whatever sat in the record
// log's buffer is lost) — and then a second time while the recovered job
// is finishing. Each recovery must resume exactly the records on disk, and
// the job must end where an undisturbed one does: same digest, same
// counts, the same violations under the same indices, no interleaving
// recorded twice. The state-stable row's detector compares every outcome
// with the first: only a recovery that hands it the state it held before
// the kill reports the undisturbed job's violations.
func TestAggregatorCrashOrder(t *testing.T) {
	roshi2 := JobSpec{Bug: "Roshi-2", Mode: "dfs", MaxInterleavings: testCap, RangeSize: 4}
	rows := []struct {
		name     string
		spec     JobSpec
		boundary aggBoundary
	}{
		{"acknowledged-not-aggregated", roshi2, beforeAggregate},
		{"records-written-not-synced", roshi2, afterRecords},
		{"state-stable", JobSpec{Miscon: "Roshi#1", Mode: "erpi", MaxInterleavings: testCap, RangeSize: 4}, beforeAggregate},
	}

	serve := func(t *testing.T, spec JobSpec, root string, recover bool) (*Service, *Job) {
		svc := startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond})
		if !recover {
			j, err := svc.Submit(spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			return svc, j
		}
		if err := svc.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		jobs := svc.Jobs()
		if len(jobs) != 1 {
			t.Fatalf("recovered %d jobs from %s, want 1", len(jobs), root)
		}
		return svc, jobs[0]
	}
	// The worker commits a range only once the previous one is aggregated,
	// so every range is a batch of its own and "the nth batch" is the same
	// place in every run. finishBatch wakes the job after it lowers
	// parkedN, so the hook waits on the wake it read under j.mu.
	finish := func(t *testing.T, svc *Service, j *Job) JobStatus {
		err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w", Once: true, BeforeCommit: func(int) {
			j.mu.Lock()
			for j.parkedN > 0 {
				wake := j.wake
				j.mu.Unlock()
				<-wake
				j.mu.Lock()
			}
			j.mu.Unlock()
		}})
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		st := waitDone(t, j)
		if st.State != StateDone {
			t.Fatalf("state = %s (%+v)", st.State, st)
		}
		return st
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			wantDigest, wantExplored := sequentialBaseline(t, row.spec)
			svc, j := serve(t, row.spec, t.TempDir(), false)
			want := finish(t, svc, j)
			if want.Digest != wantDigest || want.Explored != wantExplored || len(want.Violations) == 0 {
				t.Fatalf("vacuous: the undisturbed job ended with %d explored, %d violations", want.Explored, len(want.Violations))
			}

			svc1, j1 := serve(t, row.spec, t.TempDir(), false)
			firstKill := killAt(t, j1, row.boundary, 3)
			finish(t, svc1, j1)

			svc2, j2 := serve(t, row.spec, firstKill, true)
			recorded := len(journalKeys(t, filepath.Join(firstKill, j2.ID())))
			if st := j2.Status(); st.Resumed != recorded || st.Resumed == 0 || st.Resumed >= wantExplored {
				t.Fatalf("first recovery resumed %d of %d records (job of %d)", st.Resumed, recorded, wantExplored)
			}
			secondKill := killAt(t, j2, beforeAggregate, 3)
			finish(t, svc2, j2)

			svc3, j3 := serve(t, row.spec, secondKill, true)
			recorded = len(journalKeys(t, filepath.Join(secondKill, j3.ID())))
			if st := j3.Status(); st.Resumed != recorded || st.Resumed <= j2.Status().Resumed {
				t.Fatalf("second recovery resumed %d of %d records, the first %d", st.Resumed, recorded, j2.Status().Resumed)
			}
			got := finish(t, svc3, j3)
			if got.Explored != want.Explored || got.Digest != want.Digest {
				t.Fatalf("explored %d digest %s, want %d %s", got.Explored, got.Digest, want.Explored, want.Digest)
			}
			if got.FirstViolation != want.FirstViolation || !reflect.DeepEqual(got.Violations, want.Violations) ||
				got.Quarantined != want.Quarantined || got.Subsumed != want.Subsumed {
				t.Fatalf("two kills changed the accounting:\n got  first violation %d, %d violations, %d quarantined, %d subsumed\n want %d, %d, %d, %d",
					got.FirstViolation, len(got.Violations), got.Quarantined, got.Subsumed,
					want.FirstViolation, len(want.Violations), want.Quarantined, want.Subsumed)
			}
			assertUniqueKeys(t, journalKeys(t, filepath.Join(secondKill, j3.ID())), wantExplored)
		})
	}
}

// TestDoneMeansDurable: when Done() is observed the last batch is on disk
// — the directory, read from its files while the service still runs and
// nothing has been flushed on its behalf, holds a record of every explored
// interleaving.
func TestDoneMeansDurable(t *testing.T) {
	spec := testSpec()
	_, wantExplored := sequentialBaseline(t, spec)
	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	go func() { _ = RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w1", Once: true}) }()
	<-j.Done()
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, j.ID())), wantExplored)
	var m JobStatus
	dir, err := checkpoint.Open(filepath.Join(root, j.ID()))
	if err == nil {
		err = dir.LoadJSON("job.json", &m)
	}
	if err != nil || m.State != StateDone || m.Explored != wantExplored {
		t.Fatalf("manifest at Done(): %+v, %v", m, err)
	}
}

// TestResumeAlreadyStopped: a StopOnViolation job whose record log holds
// its violation while job.json still says running — the coordinator died
// between the batch and the terminal manifest — reopens stopped. It carves
// nothing, even for a worker that asks, and finishes done with what the
// uninterrupted job reported.
func TestResumeAlreadyStopped(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-1", Mode: "erpi", StopOnViolation: true, RangeSize: 16}
	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w1", Once: true}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	want := waitDone(t, j)
	if want.State != StateDone || want.FirstViolation == 0 || want.Explored != want.FirstViolation {
		t.Fatalf("vacuous: the uninterrupted job ended %s with %d explored, first violation %d", want.State, want.Explored, want.FirstViolation)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, j.ID())
	running, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := running.SaveJSON("job.json", JobStatus{ID: j.ID(), Spec: spec, State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	if err := running.Close(); err != nil {
		t.Fatal(err)
	}

	svc = startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond})
	if err := svc.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j, ok := svc.Job(j.ID())
	if !ok || j.ledger == nil {
		t.Fatalf("vacuous: the job did not reopen from its records")
	}
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w2", Job: j.ID(), Once: true}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	got := waitDone(t, j)
	j.mu.Lock()
	carved := len(j.ranges)
	j.mu.Unlock()
	if carved != 0 || got.State != StateDone || got.Resumed != want.Explored {
		t.Fatalf("reopened job carved %d ranges and ended %s, resuming %d of %d records", carved, got.State, got.Resumed, want.Explored)
	}
	if got.Explored != want.Explored || got.FirstViolation != want.FirstViolation || got.Digest != want.Digest ||
		!reflect.DeepEqual(got.Violations, want.Violations) || got.Exhausted != want.Exhausted {
		t.Fatalf("reopened job diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestExploredNeverAheadOfDisk: a job counts a batch only once the record
// log's clock has synced it, so all through a dist-sized job (two workers,
// ranges of 32, a cap of 2 500) the Explored the job reports after each
// finished batch is at most what a fresh read of the job directory finds
// right after it.
func TestExploredNeverAheadOfDisk(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-3", Mode: "erpi", MaxInterleavings: 2500, RangeSize: 32}
	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 2 * time.Second})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for _, name := range []string{"w1", "w2"} {
		go func() { _ = RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: name, Once: true}) }()
	}
	dir := filepath.Join(root, j.ID())
	deadline := time.After(60 * time.Second)
	midRun := 0
	j.mu.Lock()
	for counted := -1; ; {
		// Once per finished batch (and at the end): take the count under
		// the job's lock, then read the directory.
		for j.st.State == StateRunning && j.st.Explored == counted {
			wake := j.wake
			j.mu.Unlock()
			select {
			case <-wake:
			case <-deadline:
				t.Fatalf("job did not finish: %+v", j.Status())
			}
			j.mu.Lock()
		}
		counted = j.st.Explored
		explored, state := j.st.Explored, j.st.State
		j.mu.Unlock()
		onDisk := len(jobRecords(t, dir))
		if explored > onDisk {
			t.Fatalf("Explored = %d, but the job directory holds %d records", explored, onDisk)
		}
		if state != StateRunning {
			if state != StateDone || explored != spec.MaxInterleavings || onDisk != explored {
				t.Fatalf("job ended %s with %d explored, %d records on disk", state, explored, onDisk)
			}
			break
		}
		if explored > 0 {
			midRun++
		}
		j.mu.Lock()
	}
	if midRun == 0 {
		t.Fatal("vacuous: no check saw the job part way through")
	}
}

// TestJobJournalFsyncTelemetry is the coordinator twin of the runner's
// TestJournalFsyncTelemetry: the job's ledger installs the record log's
// sync observer, so a coordinator job reports its syncs, and together
// they cover every record exactly once.
func TestJobJournalFsyncTelemetry(t *testing.T) {
	reg := telemetry.New()
	svc := startService(t, Options{LeaseTTL: 500 * time.Millisecond, Telemetry: reg})
	j, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	go func() { _ = RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "w1", Once: true}) }()
	st := waitDone(t, j)
	snap := reg.Snapshot()
	if got := snap.Counters["journal.fsync_batches"]; got < 1 {
		t.Fatalf("journal.fsync_batches = %d, want >= 1", got)
	}
	if got := snap.Counters["journal.fsync_keys"]; got != int64(st.Explored) {
		t.Fatalf("journal.fsync_keys = %d, want %d", got, st.Explored)
	}
	if hs := snap.Histograms["stage.journal-fsync_ns"]; hs.Count < 1 {
		t.Fatal("no journal-fsync spans recorded")
	}
}

// TestCarveWaitsLocked pins when the aggregator syncs a written batch at
// once instead of leaving it to the record log's clock: exactly when the
// job can make no progress until the batch counts. A fuzz job that waits
// out the clock at every generation boundary runs several times slower.
func TestCarveWaitsLocked(t *testing.T) {
	two := []*jobRange{{id: 1}, {id: 2}}
	cases := []struct {
		name string
		j    *Job
		next int
		want bool
	}{
		{"parked bound, a range still leased", &Job{parkedN: maxParkedRanges, leasedN: 1, ranges: two}, 2, true},
		{"a range leased", &Job{leasedN: 1, noMore: true, ranges: two}, 3, false},
		{"a range requeued", &Job{pendingQ: []int{2}, noMore: true, ranges: two}, 2, false},
		{"a range left to aggregate", &Job{noMore: true, ranges: two}, 2, false},
		{"idle, more to carve", &Job{ranges: two}, 3, false},
		{"idle, fully carved", &Job{noMore: true, ranges: two}, 3, true},
		{"idle, generation held", &Job{held: true, ranges: two}, 3, true},
	}
	for _, c := range cases {
		if got := c.j.carveWaitsLocked(c.next); got != c.want {
			t.Errorf("%s: carveWaitsLocked(%d) = %v, want %v", c.name, c.next, got, c.want)
		}
	}
}
