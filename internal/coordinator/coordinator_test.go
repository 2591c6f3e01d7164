package coordinator

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// testCap keeps chaos runs fast: 96 interleavings at rangeSize 8 = 12
// ranges, enough for crashes to land mid-job.
const testCap = 96

func testSpec() JobSpec {
	return JobSpec{Bug: "Roshi-1", Mode: "dfs", MaxInterleavings: testCap}
}

// sequentialBaseline runs the spec through the one-worker in-process
// engine and returns its digest and explored count — the ground truth
// every distributed run is pinned against.
func sequentialBaseline(t *testing.T, spec JobSpec) (string, int) {
	t.Helper()
	scenario, _, err := spec.build()
	if err != nil {
		t.Fatalf("build scenario: %v", err)
	}
	d := NewDigest()
	res, err := runner.Run(scenario, runner.Config{
		Mode:               runner.Mode(spec.Mode),
		Seed:               spec.Seed,
		FuzzGenerationSize: spec.FuzzGenerationSize,
		MaxInterleavings:   spec.MaxInterleavings,
		Workers:            1,
		OnOutcome:          d.Observe,
	})
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return d.Sum(), res.Explored
}

func startLockServer(t *testing.T) string {
	t.Helper()
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("lockserver: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}

func startService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.JournalRoot == "" {
		opts.JournalRoot = t.TempDir()
	}
	if opts.RangeSize == 0 {
		opts.RangeSize = 8
	}
	svc, err := New(opts)
	if err != nil {
		t.Fatalf("coordinator.New: %v", err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

func waitDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job did not finish: %+v", j.Status())
	}
	return j.Status()
}

// jobRecords reads a job directory's record log from its files.
func jobRecords(t *testing.T, dir string) []checkpoint.Record {
	t.Helper()
	d, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d.Records()
	if err != nil {
		t.Fatalf("read records: %v", err)
	}
	return recs
}

// journalKeys reads the record log's keys raw (no dedup) so tests can
// assert that no interleaving was recorded twice — the zero-double-commit
// pin.
func journalKeys(t *testing.T, dir string) []string {
	t.Helper()
	var keys []string
	for _, r := range jobRecords(t, dir) {
		keys = append(keys, r.Key)
	}
	return keys
}

func assertUniqueKeys(t *testing.T, keys []string, want int) {
	t.Helper()
	seen := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			t.Fatalf("interleaving %q journaled twice (double commit)", k)
		}
		seen[k] = struct{}{}
	}
	if want >= 0 && len(keys) != want {
		t.Fatalf("journal has %d keys, want %d", len(keys), want)
	}
}

func TestSingleWorkerMatchesSequential(t *testing.T) {
	spec := testSpec()
	wantDigest, wantExplored := sequentialBaseline(t, spec)

	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 500 * time.Millisecond})
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
		t.Fatalf("explored = %d, want %d", st.Explored, wantExplored)
	}
	if st.Digest != wantDigest {
		t.Fatalf("digest mismatch:\n distributed %s\n sequential  %s", st.Digest, wantDigest)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, j.ID())), wantExplored)
}

// TestWorkerSIGKILLRecovery is the issue's first chaos pin: one of two
// workers dies mid-range (connection drops, lease key orphaned to expire
// on its own — the faithful SIGKILL simulation), and the survivor finishes
// the job with a digest byte-identical to sequential and zero
// double-committed journal entries.
func TestWorkerSIGKILLRecovery(t *testing.T) {
	spec := testSpec()
	wantDigest, wantExplored := sequentialBaseline(t, spec)

	lockAddr := startLockServer(t)
	root := t.TempDir()
	reg := telemetry.New()
	svc := startService(t, Options{
		JournalRoot: root,
		LockAddr:    lockAddr,
		LeaseTTL:    150 * time.Millisecond,
		Telemetry:   reg,
	})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	crashed := make(chan error, 1)
	go func() {
		crashed <- RunWorker(context.Background(), WorkerOptions{
			Addr:                 svc.Addr(),
			Name:                 "victim",
			CrashAfterExecutions: 5,
		})
	}()
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "survivor", Once: true}); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := <-crashed; !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("victim returned %v, want ErrWorkerCrashed", err)
	}

	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done (%+v)", st.State, st)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1 (the victim's range must have been orphaned)", st.Requeues)
	}
	if st.Explored != wantExplored {
		t.Fatalf("explored = %d, want %d", st.Explored, wantExplored)
	}
	if st.Digest != wantDigest {
		t.Fatalf("digest mismatch after worker kill:\n distributed %s\n sequential  %s", st.Digest, wantDigest)
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0", st.Quarantined)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, j.ID())), wantExplored)
}

// TestLeaseExpiryFencesZombieCommit is the issue's second chaos pin: a
// worker pauses just before committing, its lease is expired out from
// under it, the range is requeued and re-executed elsewhere — and when the
// zombie finally commits, the stale epoch is fenced, keeping the journal
// free of double commits.
func TestLeaseExpiryFencesZombieCommit(t *testing.T) {
	spec := testSpec()
	wantDigest, wantExplored := sequentialBaseline(t, spec)

	lockAddr := startLockServer(t)
	root := t.TempDir()
	svc := startService(t, Options{
		JournalRoot: root,
		LockAddr:    lockAddr,
		LeaseTTL:    200 * time.Millisecond,
	})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	paused := make(chan int, 1)    // zombie reports the range it holds
	release := make(chan struct{}) // test lets the zombie commit late
	var once sync.Once
	zombieDone := make(chan error, 1)
	go func() {
		zombieDone <- RunWorker(context.Background(), WorkerOptions{
			Addr: svc.Addr(),
			Name: "zombie",
			Once: true,
			BeforeCommit: func(rangeID int) {
				once.Do(func() {
					paused <- rangeID
					<-release
				})
			},
		})
	}()

	var pausedRange int
	select {
	case pausedRange = <-paused:
	case <-time.After(30 * time.Second):
		t.Fatal("zombie never reached its first commit")
	}

	// Expire the zombie's lease: delete its lock key, exactly what the
	// lockserver's TTL sweep would do. The janitor sees the key gone and
	// requeues the range; the zombie's AutoRenew loses the mutex but its
	// commit is already in flight once released.
	lc, err := lockserver.Dial(lockAddr)
	if err != nil {
		t.Fatalf("dial lockserver: %v", err)
	}
	defer lc.Close()
	if _, err := lc.Del(j.LeaseKey(pausedRange)); err != nil {
		t.Fatalf("delete lease key: %v", err)
	}

	// A healthy worker picks up the orphaned range and everything else.
	healthyDone := make(chan error, 1)
	go func() {
		healthyDone <- RunWorker(context.Background(), WorkerOptions{Addr: svc.Addr(), Name: "healthy", Once: true})
	}()

	st := waitDone(t, j)
	close(release) // zombie wakes and sends its stale commit
	if err := <-zombieDone; err != nil {
		t.Fatalf("zombie: %v", err)
	}
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy: %v", err)
	}

	if st.State != StateDone {
		t.Fatalf("state = %s, want done (%+v)", st.State, st)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1", st.Requeues)
	}
	if st.Explored != wantExplored {
		t.Fatalf("explored = %d, want %d", st.Explored, wantExplored)
	}
	if st.Digest != wantDigest {
		t.Fatalf("digest mismatch after lease expiry:\n distributed %s\n sequential  %s", st.Digest, wantDigest)
	}
	// The zombie's late commit must have been fenced, not journaled.
	if got := j.Status().Fenced; got < 1 {
		t.Fatalf("fence rejections = %d, want >= 1", got)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, j.ID())), wantExplored)
}

// TestCoordinatorResume crash-recovers the coordinator itself: a worker
// dies mid-job, the service shuts down, a fresh service recovers the job
// from its journal — committed ranges replay from results.log, orphaned
// work re-executes — and the final digest still matches sequential with
// the cap honored exactly (no loss, no double count).
func TestCoordinatorResume(t *testing.T) {
	spec := testSpec()
	wantDigest, wantExplored := sequentialBaseline(t, spec)

	root := t.TempDir()
	svc := startService(t, Options{JournalRoot: root, LeaseTTL: 300 * time.Millisecond})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	jobID := j.ID()
	err = RunWorker(context.Background(), WorkerOptions{
		Addr:                 svc.Addr(),
		Name:                 "doomed",
		CrashAfterExecutions: 40,
	})
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("worker returned %v, want ErrWorkerCrashed", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close service: %v", err)
	}

	svc2 := startService(t, Options{JournalRoot: root, LeaseTTL: 300 * time.Millisecond})
	if err := svc2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j2, ok := svc2.Job(jobID)
	if !ok {
		t.Fatalf("job %s not recovered", jobID)
	}
	if st := j2.Status(); st.Resumed == 0 {
		t.Fatalf("resumed = 0, want > 0 (committed ranges must survive the restart)")
	}
	if err := RunWorker(context.Background(), WorkerOptions{Addr: svc2.Addr(), Name: "finisher", Once: true}); err != nil {
		t.Fatalf("finisher: %v", err)
	}
	st := waitDone(t, j2)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done (%+v)", st.State, st)
	}
	if st.Explored != wantExplored {
		t.Fatalf("explored = %d, want %d (resume must neither lose nor double-count)", st.Explored, wantExplored)
	}
	if st.Digest != wantDigest {
		t.Fatalf("digest mismatch across coordinator restart:\n distributed %s\n sequential  %s", st.Digest, wantDigest)
	}
	assertUniqueKeys(t, journalKeys(t, filepath.Join(root, jobID)), wantExplored)

	// A third incarnation restores the finished job read-only.
	if err := svc2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	svc3 := startService(t, Options{JournalRoot: root})
	if err := svc3.Recover(); err != nil {
		t.Fatalf("recover finished: %v", err)
	}
	j3, ok := svc3.Job(jobID)
	if !ok {
		t.Fatal("finished job not recovered")
	}
	if st := j3.Status(); st.State != StateDone || st.Digest != wantDigest {
		t.Fatalf("finished job restored as %s/%s, want done/%s", st.State, st.Digest, wantDigest)
	}
}

// TestPoisonRangeQuarantine drives one range through its full lease budget
// without ever committing; the coordinator must quarantine it and finish
// the job with partial results instead of requeueing forever.
func TestPoisonRangeQuarantine(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-1", Mode: "dfs", MaxInterleavings: 8, RangeSize: 8}
	j, err := openJob("poison", spec, t.TempDir(), 8, 100*time.Millisecond, newSvcTel(nil))
	if err != nil {
		t.Fatalf("openJob: %v", err)
	}
	defer j.closeFiles()

	for lease := 1; lease <= maxRangeLeases; lease++ {
		grant := j.lease("flaky")
		if grant.Type != msgRange {
			t.Fatalf("lease %d: got %q, want range", lease, grant.Type)
		}
		if grant.Epoch != lease {
			t.Fatalf("lease %d: epoch = %d, want %d (fencing epoch must bump per lease)", lease, grant.Epoch, lease)
		}
		// The worker goes silent; force the deadline and reap.
		j.mu.Lock()
		j.ranges[grant.Range-1].deadline = time.Now().Add(-time.Second)
		j.mu.Unlock()
		j.reap(time.Now(), nil)
	}
	// The next lease pops the exhausted range, poisons it, and the job —
	// whose whole space was this one range — completes.
	reply := j.lease("flaky")
	if reply.Type != msgDone {
		t.Fatalf("after poison: got %q, want done", reply.Type)
	}
	st := waitDone(t, j)
	if st.Quarantined != 8 {
		t.Fatalf("quarantined = %d, want 8 (the whole poisoned range)", st.Quarantined)
	}
	if st.Requeues != maxRangeLeases {
		t.Fatalf("requeues = %d, want %d", st.Requeues, maxRangeLeases)
	}
}

func TestFencedHeartbeatAndCommit(t *testing.T) {
	spec := JobSpec{Bug: "Roshi-1", Mode: "dfs", MaxInterleavings: 16, RangeSize: 8}
	j, err := openJob("fence", spec, t.TempDir(), 8, 100*time.Millisecond, newSvcTel(nil))
	if err != nil {
		t.Fatalf("openJob: %v", err)
	}
	defer j.closeFiles()

	grant := j.lease("w1")
	if grant.Type != msgRange {
		t.Fatalf("lease: got %q", grant.Type)
	}
	// Orphan and re-grant: epoch bumps, old holder is a zombie.
	j.mu.Lock()
	j.ranges[grant.Range-1].deadline = time.Now().Add(-time.Second)
	j.mu.Unlock()
	j.reap(time.Now(), nil)
	regrant := j.lease("w2")
	if regrant.Range != grant.Range || regrant.Epoch != grant.Epoch+1 {
		t.Fatalf("regrant = range %d epoch %d, want range %d epoch %d",
			regrant.Range, regrant.Epoch, grant.Range, grant.Epoch+1)
	}
	if j.heartbeat("w1", grant.Range, grant.Epoch) {
		t.Fatal("stale heartbeat accepted")
	}
	results := make([]wireResult, len(grant.Interleavings))
	ok, err := j.commit("w1", grant.Range, grant.Epoch, results)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if ok {
		t.Fatal("stale commit accepted: zombie double-commit is possible")
	}
	if j.Status().Fenced < 2 {
		t.Fatalf("fenced = %d, want >= 2", j.Status().Fenced)
	}
	// The live holder's heartbeat and commit still work.
	if !j.heartbeat("w2", regrant.Range, regrant.Epoch) {
		t.Fatal("live heartbeat rejected")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"neither", JobSpec{}},
		{"both", JobSpec{Bug: "Roshi-1", Miscon: "CRDTs#4"}},
		{"badmode", JobSpec{Bug: "Roshi-1", Mode: "bogus"}},
	}
	for _, c := range cases {
		spec := c.spec
		if err := spec.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", c.name, c.spec)
		}
	}
	good := JobSpec{Bug: "Roshi-1"}
	if err := good.validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if good.Mode != string(runner.ModeERPi) {
		t.Fatalf("mode defaulted to %q, want erpi", good.Mode)
	}
	// ModeFuzz distributes by generation since the generation-batched
	// fuzzer landed; the spec must validate.
	fz := JobSpec{Bug: "Roshi-1", Mode: "fuzz", FuzzGenerationSize: 16}
	if err := fz.validate(); err != nil {
		t.Fatalf("fuzz spec rejected: %v", err)
	}
}

func TestDigestOrderInsensitive(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	a.Add("1,2,3", "sigA")
	a.Add("3,2,1", "sigB")
	b.Add("3,2,1", "sigB")
	b.Add("1,2,3", "sigA")
	if a.Sum() != b.Sum() {
		t.Fatal("digest depends on insertion order")
	}
	b.Add("1,2,3", "sigA") // idempotent re-add
	if a.Sum() != b.Sum() {
		t.Fatal("digest not idempotent under re-add")
	}
	a.Add("2,1,3", "sigC")
	if a.Sum() == b.Sum() {
		t.Fatal("digest ignored a new entry")
	}
}
