package coordinator

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Job states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// rangeStatus is a range's position in the lease state machine:
//
//	pending --lease--> leased --commit--> committed
//	   ^                 |
//	   +----requeue------+   (heartbeat deadline missed, worker gone)
//
// Every pending→leased transition bumps the range's fencing epoch; commits
// and heartbeats quoting an older epoch are rejected ("fenced").
type rangeStatus uint8

const (
	rangePending rangeStatus = iota
	rangeLeased
	rangeCommitted
)

// maxParkedRanges bounds how far carving may run ahead of aggregation:
// while this many committed ranges wait for the aggregator, no fresh range
// is carved (requeued ones are still granted — they are what aggregation
// waits for). With at most one leased range per worker, a job holds at most
// maxParkedRanges + workers ranges of outcomes in memory however slow the
// disk is. A count, never a time or a rate: results cannot depend on it,
// because aggregation order is carve order either way.
const maxParkedRanges = 64

// maxRangeLeases is how many times a range may be (re)leased before the
// coordinator declares it poisoned — some interleaving in it keeps killing
// workers — and quarantines the whole range rather than requeue it forever.
const maxRangeLeases = 5

// jobRange is one contiguous slice of the exploration sequence.
type jobRange struct {
	id    int // 1-based, carve order == aggregation order
	start int // global index of ils[0] (1-based exploration position)
	ils   []interleave.Interleaving

	status   rangeStatus
	epoch    int // fencing token: bumped on every lease
	worker   string
	deadline time.Time // heartbeat deadline; missing it orphans the range
	leases   int       // lifetime lease count (poison detector)
	// results are the committed results parked for the aggregator, which
	// alone reads ils and results once status is rangeCommitted.
	results []wireResult
}

// JobStatus is a point-in-time snapshot of a job, the unit the jobs API
// serves, and the job's durable account: job.json in the journal dir holds
// the one its terminal transition saw (and, while it runs, the one it
// opened with), and a finished job restores from it read-only.
type JobStatus struct {
	ID             string                 `json:"id"`
	Label          string                 `json:"label"`
	Spec           JobSpec                `json:"spec"`
	State          string                 `json:"state"`
	Explored       int                    `json:"explored"` // resumed + recorded this session, once durable
	Resumed        int                    `json:"resumed"`
	Quarantined    int                    `json:"quarantined"`
	Subsumed       int                    `json:"subsumed,omitempty"`
	Violations     []checkpoint.Violation `json:"violations,omitempty"`
	FirstViolation int                    `json:"first_violation,omitempty"`
	Digest         string                 `json:"digest,omitempty"` // set once terminal
	Exhausted      bool                   `json:"exhausted"`
	RangesPending  int                    `json:"ranges_pending"`
	RangesLeased   int                    `json:"ranges_leased"`
	Requeues       int                    `json:"requeues"`
	Fenced         int                    `json:"fence_rejections"`
	// Bundles lists the forensic bundle files captured for this job's
	// violations (under the job's journal directory).
	Bundles []string `json:"bundles,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// Job is one exploration workload being served to workers. Mutable state
// is guarded by mu, which connection goroutines (lease/heartbeat/commit),
// the janitor (reap/workerGone) and the job's aggregator contend on — and
// which is held across no fsync and no Ledger.Record: commit parks a
// range's results and returns, the aggregator goroutine, the only one that
// touches res and records (through the ledger), writes them, and the
// finisher counts them once they are durable.
type Job struct {
	tel *svcTel

	journal   *checkpoint.Dir
	rangeSize int
	leaseTTL  time.Duration
	// now stamps grants and heartbeats (time.Now; tests substitute a
	// synthetic clock to drive reap without sleeping).
	now func() time.Time

	mu sync.Mutex
	// st is the job's account: what Status reports, with the live lease
	// counters filled in, and what job.json holds. ID, Label and Spec are
	// set by openJob and never change, so they are read without mu. The
	// ledger's counts enter it when the job opens (the resumed records)
	// and by finishBatch, once their batch is durable; the terminal fields
	// by endLocked.
	st JobStatus
	// eventsPer is the events in every interleaving (a grant states it once).
	eventsPer int
	noMore    bool
	// held: the last carve found the ledger holding at a fuzz generation
	// boundary, which evolves once the carved ranges are recorded.
	held bool

	ranges   []*jobRange
	pendingQ []int // range ids awaiting (re)lease, ascending
	leasedN  int
	parkedN  int // committed ranges the aggregator has not finished
	nextAgg  int // next range id to aggregate (1-based)

	// wake is closed and replaced on every change a waiting lease or the
	// aggregator could be waiting for: a commit, a requeue, a finished
	// batch, a terminal state. quit is closed at service shutdown.
	wake     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	aggDone  chan struct{} // closed when the aggregator and its finisher have exited; nil without one

	// ledgerMu orders every call into the ledger: carving takes indices
	// from it (Next) under mu, the aggregator records into it. Lock order
	// mu → ledgerMu; the aggregator takes ledgerMu alone, once per record
	// and once for each batch's snapshot of res.
	ledgerMu sync.Mutex

	// ledger is the exploration ledger the in-process driver uses too: it
	// assigns carved indices, and committed ranges feed it in order, into
	// res and the job's record log. Every written batch takes a snapshot of
	// res, which enters st once the finisher counts the batch. An earlier
	// session's records are read back into res by Ledger.Resume.
	ledger  *runner.Ledger
	res     *runner.Result
	stopped bool // the ledger said stop (StopOnViolation)
	digest  *Digest
	doneCh  chan struct{}

	// crashPoint, when set (tests only), is called by the aggregator at
	// each of the durability boundaries of a batch.
	crashPoint func(aggBoundary)
}

// count moves the account to res, a snapshot of the ledger's Result whose
// records are durable: Explored and Resumed are what the ledger counted.
func (st *JobStatus) count(res *runner.Result) {
	st.Explored = res.Resumed + res.Explored
	st.Resumed = res.Resumed
	st.Quarantined = len(res.Quarantined)
	st.Subsumed = res.Subsumed
	st.FirstViolation = res.FirstViolation
	st.Bundles = res.Bundles
}

// aggBoundary names a point in a batch where a kill leaves a distinct
// on-disk state (DESIGN.md §4.11, durability).
type aggBoundary uint8

const (
	beforeAggregate aggBoundary = iota // committed and acknowledged, nothing written
	afterRecords                       // the batch's records written, not yet synced
)

// openJob builds (or resumes) a job from st, what its job.json says (a
// new job's: its ID and Spec), and its journal directory. A finished job
// restores read-only from st. Resume semantics: interleavings with a
// record are committed and never re-run — their digest contribution and
// violations replay from the records — while ranges that were leased but
// never recorded simply do not exist in the new ledger and get re-carved
// and re-executed from the explorer, under the indices they had.
func openJob(st JobStatus, dir string, rangeSize int, leaseTTL time.Duration, tel *svcTel) (*Job, error) {
	scenario, asserts, err := st.Spec.Build()
	if err != nil {
		return nil, err
	}
	journal, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	if st.Spec.RangeSize > 0 {
		rangeSize = st.Spec.RangeSize
	}
	j := &Job{
		tel:       tel,
		res:       &runner.Result{},
		journal:   journal,
		rangeSize: rangeSize,
		leaseTTL:  leaseTTL,
		now:       time.Now,
		nextAgg:   1,
		wake:      make(chan struct{}),
		quit:      make(chan struct{}),
		digest:    NewDigest(),
		doneCh:    make(chan struct{}),
	}
	st.Label = st.Spec.label()
	if st.State != StateRunning && st.State != "" {
		j.st = st
		j.noMore = true
		close(j.doneCh)
		return j, nil
	}
	j.st = JobStatus{ID: st.ID, Label: st.Label, Spec: st.Spec, State: StateRunning}
	cfg := st.Spec.Config()
	explorer, err := runner.NewExplorer(scenario, cfg)
	if err != nil {
		return nil, err
	}
	// Assertions run here, in aggregation order, never on workers; a
	// violating interleaving is re-executed locally for its forensic
	// bundle (DESIGN.md §4.13), which lands under the job's journal
	// directory.
	cfg.Assertions = asserts
	cfg.ForensicDir = filepath.Join(dir, "forensics")
	cfg.Journal = journal
	// The service registry counts what the ledger decides — violations,
	// quarantines, assert spans — where the fleet view reads it.
	cfg.Telemetry = tel.reg
	j.ledger = runner.NewLedger(scenario, cfg, explorer, j.res)
	// The records are what an earlier session committed: their digest
	// contributions and violations survive a coordinator restart, the
	// assertions re-check one record per signature, and carving numbers
	// on after them. A journal recorded for another event log or
	// enumeration, or one whose records no longer replay, is refused here.
	recs, err := j.ledger.Resume()
	if err != nil {
		return nil, err
	}
	for i := range recs {
		r := &recs[i]
		if !r.Subsumed && r.Error == "" {
			j.digest.Add(r.Key, r.Sig)
		}
		j.st.Violations = append(j.st.Violations, r.Violations...)
	}
	j.st.count(j.res)
	// Records at the cap or at a StopOnViolation job's violation leave
	// nothing to assign: the janitor completes the job, worker or none.
	j.noMore = j.ledger.Done()
	if err := j.persistLocked(); err != nil {
		return nil, err
	}
	j.aggDone = make(chan struct{})
	go j.aggregate()
	return j, nil
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.st.ID }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// heartbeatGrace is how far past its grant or last heartbeat a leased
// range may go before the janitor requeues it: 2.5 lease TTLs, five of the
// worker's ttl/2 heartbeat intervals.
func (j *Job) heartbeatGrace() time.Duration { return j.leaseTTL * 5 / 2 }

// wakeLocked wakes every waiting lease and the aggregator to look again.
func (j *Job) wakeLocked() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// lease grants the worker a range: a requeued orphan first, else a freshly
// carved slice of the exploration sequence. When nothing can be granted
// *yet* — ranges in flight elsewhere, a fuzz generation barrier, carving
// maxParkedRanges ahead of the aggregator — it waits on the job instead of
// sending the worker away to poll, and answers drain only once it has
// waited leaseTTL/4 while some worker still holds a range: that worker may
// never come back, and this one's connection may be dead, which only a
// write finds out. Waiting on the aggregator alone is not bounded — it
// always finishes its batch or fails the job. Returns the reply to send.
func (j *Job) lease(worker string) *frame {
	sp := j.tel.span(telemetry.StageLease)
	defer sp.End()
	var bound *time.Timer
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if reply := j.tryLeaseLocked(worker); reply != nil {
			return reply
		}
		if bound == nil {
			bound = time.NewTimer(j.leaseTTL / 4)
			defer bound.Stop()
		}
		wake := j.wake
		j.mu.Unlock()
		select {
		case <-wake:
			j.mu.Lock()
		case <-j.quit:
			j.mu.Lock()
			return &frame{Type: msgDrain}
		case <-bound.C:
			j.mu.Lock()
			if j.leasedN > 0 {
				return &frame{Type: msgDrain}
			}
			bound.Reset(j.leaseTTL / 4)
		}
	}
}

// tryLeaseLocked is one attempt at a grant: the range, done when the job
// is over, or nil when there is nothing to hand out right now.
func (j *Job) tryLeaseLocked(worker string) *frame {
	if j.st.State != StateRunning {
		return &frame{Type: msgDone}
	}

	// Requeued ranges first: orphaned work is the oldest and gates
	// aggregation for everything after it.
	for len(j.pendingQ) > 0 {
		id := j.pendingQ[0]
		j.pendingQ = j.pendingQ[1:]
		r := j.ranges[id-1]
		if r.leases >= maxRangeLeases {
			j.poisonLocked(r)
			continue
		}
		return j.grantLocked(r, worker)
	}

	if !j.noMore && j.parkedN < maxParkedRanges {
		if r := j.carveLocked(); r != nil {
			return j.grantLocked(r, worker)
		}
	}
	if j.checkDoneLocked() {
		return &frame{Type: msgDone}
	}
	return nil
}

// carveLocked takes up to rangeSize indices from the ledger. Returns nil
// when assignment is over — or, in ModeFuzz, when the ledger holds at a
// generation boundary until every carved range has aggregated (the lease
// waits meanwhile, and the generation evolves at the next carve).
func (j *Job) carveLocked() *jobRange {
	var ils []interleave.Interleaving
	start := 0
	j.held = false
	for len(ils) < j.rangeSize && !j.noMore {
		j.ledgerMu.Lock()
		index, il, err := j.ledger.Next()
		// Known at once, so the aggregator syncs the last batch at once.
		j.noMore = j.ledger.Done()
		j.ledgerMu.Unlock()
		if err != nil { // ErrHold or ErrDone
			j.held = errors.Is(err, runner.ErrHold)
			break
		}
		if len(ils) == 0 {
			start = index
		}
		if j.eventsPer == 0 {
			j.eventsPer = len(il)
		}
		if len(il) != j.eventsPer || len(il) == 0 {
			// Every interleaving of a job orders the same events, which
			// is what lets a grant state their number once.
			j.failLocked(fmt.Errorf("coordinator: interleaving %q has %d events, the job's have %d", il.Key(), len(il), j.eventsPer))
			return nil
		}
		ils = append(ils, il)
	}
	if len(ils) == 0 {
		return nil
	}
	r := &jobRange{id: len(j.ranges) + 1, start: start, ils: ils}
	j.ranges = append(j.ranges, r)
	return r
}

func (j *Job) grantLocked(r *jobRange, worker string) *frame {
	r.status = rangeLeased
	r.epoch++
	r.worker = worker
	r.leases++
	r.deadline = j.now().Add(j.heartbeatGrace())
	j.leasedN++
	j.tel.leased.Inc()
	return &frame{
		Type:          msgRange,
		Range:         r.id,
		Epoch:         r.epoch,
		Start:         r.start,
		Interleavings: r.ils,
	}
}

// fenceCheckLocked validates that (rangeID, epoch, worker) names the
// current holder of a live lease. Any mismatch is a fencing rejection: the
// caller is a zombie whose range moved on without it.
func (j *Job) fenceCheckLocked(worker string, rangeID, epoch int) (*jobRange, bool) {
	if rangeID < 1 || rangeID > len(j.ranges) {
		return nil, false
	}
	r := j.ranges[rangeID-1]
	if r.status != rangeLeased || r.epoch != epoch || r.worker != worker {
		return nil, false
	}
	return r, true
}

// heartbeat extends a held range's deadline. A fenced heartbeat tells the
// worker to abandon the range immediately instead of finishing doomed work.
func (j *Job) heartbeat(worker string, rangeID, epoch int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.fenceCheckLocked(worker, rangeID, epoch)
	if !ok {
		j.st.Fenced++
		j.tel.fenced.Inc()
		return false
	}
	r.deadline = j.now().Add(j.heartbeatGrace())
	j.tel.heartbeats.Inc()
	return true
}

// commit accepts a range's results if the fencing epoch still matches:
// it marks the range committed, parks the results on it for the
// aggregator, and returns — acceptance promises that the results will be
// aggregated in carve order unless the coordinator dies first, not that
// they are on disk (DESIGN.md §4.11). Returns (accepted, protocol error).
// A false return with nil error is a fence rejection — the
// zombie-double-commit guard: the range was requeued (and possibly
// re-committed by its new holder), so this copy of the results is
// discarded without touching the journal.
func (j *Job) commit(worker string, rangeID, epoch int, results []wireResult) (bool, error) {
	sp := j.tel.span(telemetry.StageRangeCommit)
	defer sp.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateRunning {
		// A commit into a finished job is by definition stale — its range
		// was either committed by someone else or will never be needed.
		j.st.Fenced++
		j.tel.fenced.Inc()
		return false, nil
	}
	r, ok := j.fenceCheckLocked(worker, rangeID, epoch)
	if !ok {
		j.st.Fenced++
		j.tel.fenced.Inc()
		return false, nil
	}
	if len(results) != len(r.ils) {
		// Protocol corruption, not a fence: requeue the range and reject.
		j.requeueLocked(r)
		j.tel.rejected.Inc()
		return false, fmt.Errorf("coordinator: commit for range %d has %d results, want %d", rangeID, len(results), len(r.ils))
	}
	j.leasedN--
	j.tel.committed.Inc()
	j.parkLocked(r, results)
	return true, nil
}

// parkLocked hands a range's results to the aggregator.
func (j *Job) parkLocked(r *jobRange, results []wireResult) {
	r.status = rangeCommitted
	r.results = results
	r.worker = ""
	j.parkedN++
	j.wakeLocked()
}

// aggregate is the job's one aggregator: it feeds committed ranges, in
// carve order, through the job's ledger — the reorder buffer that checks
// assertions in index order, which the rule on runner.Assertion relies on
// — a batch of however many contiguous ranges are ready at a time. It does not wait
// on the disk for each batch: a written batch goes to the finisher, which
// counts it once the record log's clock has synced it. A batch the job
// waits on — one that completes it, stops the ledger, or holds carving —
// the aggregator syncs at once instead (carveWaitsLocked). It exits when
// the job is terminal, the ledger stopped, or the service shuts down with
// nothing left to take; aggDone closes once the finisher has counted
// every batch it was handed.
func (j *Job) aggregate() {
	written := make(chan writtenBatch, maxParkedRanges)
	go j.finish(written)
	defer func() {
		// The finisher need not wait out the clock for what is left; a
		// failed sync sticks to the record log, and its wait reports it.
		_ = j.journal.Flush()
		close(written)
	}()
	for next := 1; ; {
		batch, crashPoint := j.nextBatch(next)
		if batch == nil {
			return
		}
		next += len(batch)
		w := j.writeBatch(batch, crashPoint)
		written <- w
		if w.err != nil || w.stopped {
			return
		}
		j.mu.Lock()
		now := j.carveWaitsLocked(next)
		j.mu.Unlock()
		if now {
			_ = j.journal.Flush()
		}
	}
}

// carveWaitsLocked reports whether the job can make no progress until
// the ranges aggregated before next count, so the aggregator syncs them at
// once instead of on the clock's next tick: carving is held by the parked
// bound, or nothing is leased, requeued or left to aggregate and nothing
// can be carved before they count — the job is fully carved, or a fuzz
// generation is and evolves only once its ranges count.
func (j *Job) carveWaitsLocked(next int) bool {
	if j.parkedN >= maxParkedRanges {
		return true
	}
	if len(j.pendingQ) > 0 || j.leasedN > 0 || next <= len(j.ranges) {
		return false
	}
	return j.noMore || j.held
}

// nextBatch waits for committed ranges at next, the aggregation cursor,
// and takes all of them that are contiguous — also after shutdown, which
// only ends the waiting. nil means there will be no more.
func (j *Job) nextBatch(next int) ([]*jobRange, func(aggBoundary)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.st.State != StateRunning || j.stopped {
			return nil, nil
		}
		end := next
		for end <= len(j.ranges) && j.ranges[end-1].status == rangeCommitted {
			end++
		}
		if end > next {
			return j.ranges[next-1 : end-1 : end-1], j.crashPoint
		}
		wake := j.wake
		j.mu.Unlock()
		select {
		case <-wake:
			j.mu.Lock()
		case <-j.quit:
			j.mu.Lock()
			return nil, nil
		}
	}
}

// writtenBatch is a batch whose records the aggregator has appended to
// the record log, with what counting it will change: the finisher counts
// it once the log's durable watermark reaches mark.
type writtenBatch struct {
	ranges     []*jobRange
	violations []checkpoint.Violation
	res        runner.Result // the ledger's, once the batch is recorded
	stopped    bool          // the ledger stopped inside the batch
	mark       int           // the record log's append count after the batch
	err        error
}

// writeBatch records a batch with the ledger — which appends each
// result's record to the job's record log — holding mu nowhere and
// syncing nothing: the log's clock does that. What stays here is what is
// distributed: the keyed digest and the wire form of violations. The
// ledger is fed up to the record where it stops (StopOnViolation): the
// rest of that range is dropped, exactly as ranges committed later are,
// and the written batch holds the ranges it reached, the records it wrote
// and the violations they added.
func (j *Job) writeBatch(batch []*jobRange, crashPoint func(aggBoundary)) writtenBatch {
	at := func(b aggBoundary) {
		if crashPoint != nil {
			crashPoint(b)
		}
	}
	at(beforeAggregate)
	w := writtenBatch{ranges: batch}
ranges:
	for n, r := range batch {
		for i := range r.results {
			res := &r.results[i]
			index := r.start + i
			outcome := res.Outcome
			var execErr error
			switch {
			case res.Subsumed:
				// Pruned by the worker's subsumption table: consumes its
				// index and record, contributes nothing to the digest.
				execErr = runner.ErrSubsumed
			case outcome == nil:
				execErr = errors.New(res.Error)
			default:
				// Index and interleaving come from the coordinator's own
				// ledger, never from the wire, so a confused worker cannot
				// corrupt them.
				outcome.Index, outcome.Interleaving = index, r.ils[i]
			}
			j.ledgerMu.Lock()
			rec, err := j.ledger.Record(index, r.ils[i], outcome, res.Attempts, execErr)
			j.ledgerMu.Unlock()
			if err != nil {
				return writtenBatch{err: err}
			}
			if outcome != nil {
				j.digest.Add(rec.Key, rec.Sig)
			}
			w.violations = append(w.violations, rec.Violations...)
			if w.stopped = j.ledger.Stopped(); w.stopped {
				w.ranges = batch[:n+1]
				break ranges
			}
		}
	}
	at(afterRecords)
	j.tel.batches.Inc()
	j.ledgerMu.Lock() // a carve's Next may be settling Exhausted
	w.res = *j.res
	j.ledgerMu.Unlock()
	w.mark = j.journal.Appended()
	return w
}

// finish is the job's finisher: it counts the aggregator's written
// batches in order, each once the record log's watermark covers its last
// record, so the account and completion only ever move past records on
// disk. It closes aggDone when written is closed and drained.
func (j *Job) finish(written <-chan writtenBatch) {
	defer close(j.aggDone)
	for w := range written {
		if w.err == nil {
			w.err = j.journal.WaitDurable(w.mark)
		}
		j.finishBatch(w)
	}
}

// finishBatch accounts a durable batch — or fails the job with the write
// or sync error — and completes the job if that was the last of it. Only
// the finisher calls it, so a batch counts only once it is durable.
func (j *Job) finishBatch(w writtenBatch) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.wakeLocked()
	if j.st.State != StateRunning {
		return // cancelled meanwhile: what reached the disk stays resumable
	}
	if w.err != nil {
		j.failLocked(w.err)
		return
	}
	for _, r := range w.ranges {
		// Free the aggregated payloads; the ledger entry stays for fencing.
		r.ils, r.results = nil, nil
		j.nextAgg++
		j.parkedN--
	}
	j.st.count(&w.res)
	j.st.Violations = append(j.st.Violations, w.violations...)
	if w.stopped {
		j.stopped = true
		j.noMore = true
		j.pendingQ = nil
	}
	j.checkDoneLocked()
}

// poisonLocked quarantines an entire range that has burned through its
// lease budget — every result is recorded as a quarantine error, so the
// job terminates with partial results instead of requeueing a
// worker-killing interleaving forever.
func (j *Job) poisonLocked(r *jobRange) {
	results := make([]wireResult, len(r.ils))
	for i := range results {
		results[i].Error = fmt.Sprintf("coordinator: range %d abandoned after %d failed leases", r.id, r.leases)
	}
	j.tel.poisoned.Inc()
	j.parkLocked(r, results)
}

// requeueLocked returns a leased range to the pending queue. The epoch is
// left as-is: it bumps on the next grant, and in the pending state every
// heartbeat/commit fails the status check, so the old holder is fenced
// either way.
func (j *Job) requeueLocked(r *jobRange) {
	if r.status != rangeLeased {
		return
	}
	r.status = rangePending
	r.worker = ""
	j.leasedN--
	j.st.Requeues++
	j.tel.requeued.Inc()
	j.pendingQ = append(j.pendingQ, r.id)
	sort.Ints(j.pendingQ)
	j.wakeLocked()
}

// reap requeues the leased ranges whose heartbeat deadline passed by now:
// a worker that went silent with its connection open (TCP disconnect is
// workerGone's). If it was only slow, the epoch fence rejects its late
// commit.
func (j *Job) reap(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateRunning {
		return
	}
	for _, r := range j.ranges {
		if r.status == rangeLeased && now.After(r.deadline) {
			j.requeueLocked(r)
		}
	}
	j.checkDoneLocked()
}

// workerGone requeues every range the named worker holds (TCP disconnect:
// safe to orphan immediately — if the worker is actually alive behind a
// partition, fencing rejects its late commit).
func (j *Job) workerGone(worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateRunning {
		return
	}
	for _, r := range j.ranges {
		if r.status == rangeLeased && r.worker == worker {
			j.requeueLocked(r)
		}
	}
	j.checkDoneLocked()
}

// checkDoneLocked completes the job when no work remains anywhere in the
// ledger. Returns whether the job is now (or already was) terminal.
func (j *Job) checkDoneLocked() bool {
	if j.st.State != StateRunning {
		return true
	}
	// Once the ledger stopped (StopOnViolation), ranges past the violation
	// are never aggregated: in-flight ones fence or commit unaggregated,
	// and nothing blocks completion.
	if j.noMore && len(j.pendingQ) == 0 && j.leasedN == 0 && (j.stopped || j.nextAgg > len(j.ranges)) {
		j.completeLocked()
		return true
	}
	return false
}

// completeLocked turns the job done. Every aggregated batch is durable
// by now — nextAgg and stopped only move in finishBatch, which runs once
// the record log's watermark covers the batch — so there is nothing to
// flush.
func (j *Job) completeLocked() {
	j.st.Digest = j.digest.Sum()
	j.endLocked(StateDone)
}

func (j *Job) failLocked(err error) {
	if j.st.State != StateRunning {
		return
	}
	j.st.Error = err.Error()
	j.endLocked(StateFailed)
}

// endLocked is the one terminal transition: the account's state and
// Exhausted, job.json, Done(), and a wake for every lease still waiting
// (they answer done) and the aggregator (it exits).
func (j *Job) endLocked(state string) {
	j.st.State = state
	j.ledgerMu.Lock()
	j.st.Exhausted = j.res.Exhausted
	j.ledgerMu.Unlock()
	_ = j.persistLocked()
	close(j.doneCh)
	j.tel.jobsRunning.Add(-1)
	j.wakeLocked()
}

// cancel terminates the job; workers get done on their next request.
func (j *Job) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateRunning {
		return
	}
	j.st.Digest = j.digest.Sum()
	j.endLocked(StateCancelled)
}

// persistLocked saves what Status returns as job.json.
func (j *Job) persistLocked() error { return j.journal.SaveJSON("job.json", j.statusLocked()) }

// shutdown releases every lease waiting on the job and tells the
// aggregator to exit once no committed range is left at its cursor.
func (j *Job) shutdown() { j.quitOnce.Do(func() { close(j.quit) }) }

// closeFiles waits for the aggregator and releases the job's file handles
// (service shutdown): what was committed in carve order by now is
// aggregated and durable first, as it was when commit did that itself.
func (j *Job) closeFiles() {
	j.shutdown()
	if j.aggDone != nil {
		<-j.aggDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.journal.Close()
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is the account with the live lease counters filled in.
func (j *Job) statusLocked() JobStatus {
	st := j.st
	st.Violations = slices.Clone(st.Violations)
	st.Bundles = slices.Clone(st.Bundles)
	st.RangesPending, st.RangesLeased = len(j.pendingQ), j.leasedN
	return st
}

// Digest returns the job's outcome digest sum. Stable only once the job is
// terminal.
func (j *Job) Digest() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateRunning {
		return j.st.Digest
	}
	return j.digest.Sum()
}

// leasesByWorker adds this job's currently leased range counts into the
// per-worker tally (the federation's lease source).
func (j *Job) leasesByWorker(out map[string]int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, r := range j.ranges {
		if r.status == rangeLeased && r.worker != "" {
			out[r.worker]++
		}
	}
}
