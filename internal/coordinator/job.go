package coordinator

import (
	"errors"
	"fmt"
	"path/filepath"
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
//	   +----requeue------+   (deadline missed, lease expired, worker gone)
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

	status    rangeStatus
	epoch     int // fencing token: bumped on every lease
	worker    string
	grantedAt time.Time
	deadline  time.Time // heartbeat deadline; missing it orphans the range
	leases    int       // lifetime lease count (poison detector)
	// results are the committed results parked for the aggregator, which
	// alone reads ils and results once status is rangeCommitted.
	results []wireResult
}

// jobManifest is the durable per-job summary (job.json in the journal
// dir), written atomically on every terminal transition and periodically
// during the run.
type jobManifest struct {
	ID             string                 `json:"id"`
	Spec           JobSpec                `json:"spec"`
	State          string                 `json:"state"`
	Digest         string                 `json:"digest,omitempty"`
	Explored       int                    `json:"explored"`
	Quarantined    int                    `json:"quarantined"`
	Subsumed       int                    `json:"subsumed,omitempty"`
	Violations     []checkpoint.Violation `json:"violations,omitempty"`
	FirstViolation int                    `json:"first_violation,omitempty"`
	Exhausted      bool                   `json:"exhausted"`
	Bundles        []string               `json:"bundles,omitempty"`
	Error          string                 `json:"error,omitempty"`
}

// JobStatus is a point-in-time snapshot of a job, the unit the jobs API
// serves.
type JobStatus struct {
	ID             string                 `json:"id"`
	Label          string                 `json:"label"`
	Spec           JobSpec                `json:"spec"`
	State          string                 `json:"state"`
	Explored       int                    `json:"explored"` // aggregated this session + resumed
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

// genExplorer is the fuzz explorer's generation protocol as carving sees
// it: a generation of children is enumerated, classified by interleaving
// key (by the job's runner.Ledger, as ranges aggregate and as carving
// skips resumed keys), and the corpus evolves only when every emitted
// child is classified. Distributed fuzzing maps the barrier onto range
// aggregation — carving stops at a generation boundary until every carved
// range has committed and aggregated, then the corpus evolves and carving
// resumes.
type genExplorer interface {
	GenerationEnd() bool
	Pending() int
	Evolve()
}

// Job is one exploration workload being served to workers. Mutable state
// is guarded by mu, which connection goroutines (lease/heartbeat/commit),
// the janitor (reap/workerGone) and the job's aggregator contend on — and
// which is held across no fsync and no Ledger.Record: commit parks a
// range's results and returns, and the aggregator goroutine, the only one
// that touches res and records (through the ledger), does the rest.
type Job struct {
	id  string
	tel *svcTel

	spec      JobSpec
	journal   *checkpoint.Dir
	dir       string
	rangeSize int
	leaseTTL  time.Duration

	mu       sync.Mutex
	state    string
	err      error
	explorer interleave.Explorer
	seen     map[string]struct{} // dedup: resumed ∪ carved keys
	resumed  int                 // records an earlier session left
	maxIndex int                 // the session-wide cap: the highest index that may exist
	assigned int                 // the highest index carved (resumed ones included)
	// eventsPer is the events in every interleaving (a grant states it once).
	eventsPer int
	noMore    bool
	exhausted bool

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
	aggDone  chan struct{} // closed when the aggregator has exited; nil without one

	// genMu orders the two users of a generation explorer (ModeFuzz): the
	// ledger classifies into it during aggregation, carving enumerates from
	// it under mu. Lock order mu → genMu; the aggregator takes genMu alone.
	genMu sync.Mutex

	// ledger is the in-order result ledger committed ranges feed — the same
	// one the in-process driver feeds — accounting into res and writing
	// the job's record log. Both belong to the aggregator while the job
	// runs; what Status and the manifest need of res is copied into tally
	// under mu after every batch. An earlier session's records are read
	// back into res by Ledger.Resume.
	ledger     *runner.Ledger
	res        *runner.Result
	tally      resultTally
	aggregated int  // interleavings aggregated this session
	stopped    bool // the ledger said stop (StopOnViolation)
	violations []checkpoint.Violation
	fenced     int
	requeues   int
	digest     *Digest
	digestSum  string
	doneCh     chan struct{}

	// crashPoint, when set (tests only), is called by the aggregator at
	// each of the durability boundaries of a batch.
	crashPoint func(aggBoundary)
}

// resultTally is the part of runner.Result a job reports.
type resultTally struct {
	quarantined    int
	subsumed       int
	firstViolation int
	bundles        []string
}

func tallyOf(res *runner.Result) resultTally {
	return resultTally{
		quarantined:    len(res.Quarantined),
		subsumed:       res.Subsumed,
		firstViolation: res.FirstViolation,
		bundles:        res.Bundles,
	}
}

// aggBoundary names a point in a batch where a kill leaves a distinct
// on-disk state (DESIGN.md §4.11, durability).
type aggBoundary uint8

const (
	beforeAggregate aggBoundary = iota // committed and acknowledged, nothing written
	afterRecords                       // the batch's records written, not yet synced
)

// openJob builds (or resumes) a job from its spec and journal directory.
// Resume semantics: interleavings with a record are committed and never
// re-run — their digest contribution and violations replay from the
// records — while ranges that were leased but never recorded simply do not
// exist in the new ledger and get re-carved and re-executed from the
// explorer, under the indices they had.
func openJob(id string, spec JobSpec, dir string, rangeSize int, leaseTTL time.Duration, tel *svcTel) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	scenario, asserts, err := spec.build()
	if err != nil {
		return nil, err
	}
	journal, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	if spec.RangeSize > 0 {
		rangeSize = spec.RangeSize
	}
	j := &Job{
		id:        id,
		tel:       tel,
		spec:      spec,
		res:       &runner.Result{},
		journal:   journal,
		dir:       dir,
		rangeSize: rangeSize,
		leaseTTL:  leaseTTL,
		state:     StateRunning,
		seen:      make(map[string]struct{}),
		nextAgg:   1,
		wake:      make(chan struct{}),
		quit:      make(chan struct{}),
		digest:    NewDigest(),
		doneCh:    make(chan struct{}),
	}

	// A terminal manifest means the job already finished: restore it
	// read-only instead of re-opening exploration.
	var m jobManifest
	if err := journal.LoadJSON("job.json", &m); err == nil && m.State != StateRunning && m.State != "" {
		j.state = m.State
		j.digestSum = m.Digest
		j.resumed = m.Explored
		j.tally = resultTally{quarantined: m.Quarantined, subsumed: m.Subsumed, firstViolation: m.FirstViolation, bundles: m.Bundles}
		j.violations = m.Violations
		j.exhausted = m.Exhausted
		j.noMore = true
		close(j.doneCh)
		return j, nil
	}

	if err := journal.SaveLog(scenario.Log); err != nil {
		return nil, err
	}
	j.explorer, err = runner.NewExplorer(scenario, spec.exploreConfig())
	if err != nil {
		return nil, err
	}
	// Assertions run here, in aggregation order, never on workers; a
	// violating interleaving is re-executed locally for its forensic
	// bundle (DESIGN.md §4.13), which lands under the job's journal
	// directory.
	cfg := spec.execConfig()
	cfg.Assertions = asserts
	cfg.StopOnViolation = spec.StopOnViolation
	cfg.ForensicDir = filepath.Join(dir, "forensics")
	cfg.Journal = journal
	// The service registry counts what the ledger decides — violations,
	// quarantines, assert spans — where the fleet view reads it.
	cfg.Telemetry = tel.reg
	j.ledger = runner.NewLedger(scenario, cfg, j.explorer, j.res)
	// The records are what an earlier session committed: their digest
	// contributions and violations survive a coordinator restart without
	// re-executing anything, and carving numbers on after them.
	recs, err := j.ledger.Resume()
	if err != nil {
		return nil, err
	}
	for i := range recs {
		r := &recs[i]
		j.seen[r.Key] = struct{}{}
		if !r.Subsumed && r.Error == "" {
			j.digest.Add(r.Key, r.Sig)
		}
		j.violations = append(j.violations, r.Violations...)
	}
	j.resumed = len(recs)
	j.assigned = j.resumed
	j.tally = tallyOf(j.res)

	j.maxIndex = spec.MaxInterleavings
	switch {
	case j.maxIndex == 0:
		j.maxIndex = runner.DefaultMaxInterleavings
	case j.maxIndex < 0:
		j.maxIndex = int(^uint(0) >> 1)
	}
	// A StopOnViolation job whose records hold its violation is over.
	j.stopped = j.ledger.Stopped()
	j.noMore = j.stopped
	if err := journal.SaveJSON("job.json", jobManifest{ID: id, Spec: spec, State: StateRunning}); err != nil {
		return nil, err
	}
	j.aggDone = make(chan struct{})
	go j.aggregate()
	return j, nil
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// heartbeatGrace is how far past its last contact a leased range may go
// before the janitor requeues it: 2.5 lease TTLs, comfortably beyond the
// worker's ttl/2 heartbeat cadence and one full lockserver lease.
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
	if j.state != StateRunning {
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

// carveLocked pulls up to rangeSize fresh interleavings from the explorer,
// skipping keys already seen (journal resume, rand-mode repeats). Returns
// nil when the space or the budget is exhausted — or, in ModeFuzz, when a
// generation boundary holds carving until every outstanding range has
// aggregated and classified (the distributed fuzz barrier: the lease waits
// meanwhile, and the generation evolves once the ledger drains).
func (j *Job) carveLocked() *jobRange {
	ge, isGen := j.explorer.(genExplorer)
	if isGen {
		j.genMu.Lock()
		defer j.genMu.Unlock()
	}
	var ils []interleave.Interleaving
	start := j.assigned + 1
	for len(ils) < j.rangeSize && j.assigned < j.maxIndex {
		if isGen && ge.GenerationEnd() {
			// A fuzz generation is fully carved. Stop here — including the
			// range under construction — and only evolve once every carved
			// range has aggregated, so the corpus never sees partial
			// evidence.
			if len(ils) > 0 || j.nextAgg <= len(j.ranges) || ge.Pending() != 0 {
				break
			}
			ge.Evolve()
		}
		il, ok := j.explorer.Next()
		if !ok {
			j.noMore = true
			j.exhausted = true
			break
		}
		key := il.Key()
		if _, dup := j.seen[key]; dup {
			// A resumed key never re-executes: the ledger replays its
			// recorded classification (ModeFuzz), so the generation still
			// completes with the evidence the first execution produced.
			j.ledger.Skipped(key)
			continue
		}
		if j.eventsPer == 0 {
			j.eventsPer = len(il)
		}
		if len(il) != j.eventsPer || len(il) == 0 {
			// Every interleaving of a job orders the same events, which
			// is what lets a grant state their number once.
			j.failLocked(fmt.Errorf("coordinator: interleaving %q has %d events, the job's have %d", key, len(il), j.eventsPer))
			return nil
		}
		j.seen[key] = struct{}{}
		ils = append(ils, il)
		j.assigned++
	}
	if j.assigned >= j.maxIndex {
		j.noMore = true
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
	r.grantedAt = time.Now()
	r.deadline = r.grantedAt.Add(j.heartbeatGrace())
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
		j.fenced++
		j.tel.fenced.Inc()
		return false
	}
	r.deadline = time.Now().Add(j.heartbeatGrace())
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
	if j.state != StateRunning {
		// A commit into a finished job is by definition stale — its range
		// was either committed by someone else or will never be needed.
		j.fenced++
		j.tel.fenced.Inc()
		return false, nil
	}
	r, ok := j.fenceCheckLocked(worker, rangeID, epoch)
	if !ok {
		j.fenced++
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
// carve order, through the job's ledger — the reorder buffer that makes
// stateful assertions see the exact sequential outcome sequence — a batch
// of however many contiguous ranges are ready at a time, and makes each
// batch durable before it counts. It exits when the job is terminal, the
// ledger stopped, or the service shuts down with nothing left to take.
func (j *Job) aggregate() {
	defer close(j.aggDone)
	for {
		batch, crashPoint := j.nextBatch()
		if batch == nil {
			return
		}
		n, violations, err := j.writeBatch(batch, crashPoint)
		j.finishBatch(batch[:n], violations, err)
	}
}

// nextBatch waits for committed ranges at the aggregation cursor and takes
// all of them that are contiguous — also after shutdown, which only ends
// the waiting. nil means there will be no more.
func (j *Job) nextBatch() ([]*jobRange, func(aggBoundary)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.state != StateRunning || j.stopped {
			return nil, nil
		}
		end := j.nextAgg
		for end <= len(j.ranges) && j.ranges[end-1].status == rangeCommitted {
			end++
		}
		if end > j.nextAgg {
			return j.ranges[j.nextAgg-1 : end-1 : end-1], j.crashPoint
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

// writeBatch records a batch with the ledger — which appends each
// result's record to the job's record log — and makes it durable with one
// sync, holding mu nowhere. What stays here is what is distributed: the
// keyed digest and the wire form of violations. It returns how many of
// the batch's ranges it aggregated — fewer than all when the ledger
// stopped inside it, the rest being dropped exactly as ranges committed
// later are — and the violations they added.
func (j *Job) writeBatch(batch []*jobRange, crashPoint func(aggBoundary)) (int, []checkpoint.Violation, error) {
	at := func(b aggBoundary) {
		if crashPoint != nil {
			crashPoint(b)
		}
	}
	at(beforeAggregate)
	_, isGen := j.explorer.(genExplorer)
	var violations []checkpoint.Violation
	for n, r := range batch {
		if isGen {
			j.genMu.Lock()
		}
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
				j.tel.subsumed.Inc()
			case outcome == nil:
				execErr = errors.New(res.Error)
			default:
				// Index and interleaving come from the coordinator's own
				// ledger, never from the wire, so a confused worker cannot
				// corrupt them.
				outcome.Index, outcome.Interleaving = index, r.ils[i]
			}
			rec, err := j.ledger.Record(index, r.ils[i], outcome, res.Attempts, execErr)
			if err != nil {
				if isGen {
					j.genMu.Unlock()
				}
				return 0, nil, err
			}
			if outcome != nil {
				j.digest.Add(rec.Key, rec.Sig)
			}
			violations = append(violations, rec.Violations...)
		}
		if isGen {
			j.genMu.Unlock()
		}
		if j.ledger.Stopped() {
			batch = batch[:n+1]
			break
		}
	}
	at(afterRecords)
	j.tel.batches.Inc()
	return len(batch), violations, j.journal.Flush()
}

// finishBatch accounts a durable batch — or fails the job with the write
// error — and completes the job if that was the last of it.
func (j *Job) finishBatch(batch []*jobRange, violations []checkpoint.Violation, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.wakeLocked()
	if j.state != StateRunning {
		return // cancelled meanwhile: what reached the disk stays resumable
	}
	if err != nil {
		j.failLocked(err)
		return
	}
	for _, r := range batch {
		j.aggregated += len(r.ils)
		// Free the aggregated payloads; the ledger entry stays for fencing.
		r.ils, r.results = nil, nil
		j.nextAgg++
		j.parkedN--
	}
	j.tally = tallyOf(j.res)
	j.violations = append(j.violations, violations...)
	if j.ledger.Stopped() {
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
	j.requeues++
	j.tel.requeued.Inc()
	j.pendingQ = append(j.pendingQ, r.id)
	sort.Ints(j.pendingQ)
	j.wakeLocked()
}

// reap requeues leased ranges whose heartbeat deadline passed, and — when
// the service has a lockserver client — ranges whose lease key no longer
// holds the granted worker/epoch token (the lease expired or was stolen).
// lockHeld may be nil; it returns whether the key still holds the token,
// and ok=false on lookup failure (in which case only the deadline applies).
func (j *Job) reap(now time.Time, lockHeld func(key, token string) (bool, bool)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	for _, r := range j.ranges {
		if r.status != rangeLeased {
			continue
		}
		if now.After(r.deadline) {
			j.requeueLocked(r)
			continue
		}
		// The lockserver lease is authoritative sooner than the heartbeat
		// grace: once the worker's mutex is gone past one TTL from grant,
		// nothing renews it and the range is orphaned.
		if lockHeld != nil && now.After(r.grantedAt.Add(j.leaseTTL)) {
			held, ok := lockHeld(j.LeaseKey(r.id), leaseToken(r.worker, r.epoch))
			if ok && !held {
				j.requeueLocked(r)
			}
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
	if j.state != StateRunning {
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
	if j.state != StateRunning {
		return true
	}
	if j.noMore && len(j.pendingQ) == 0 && j.leasedN == 0 && j.nextAgg > len(j.ranges) {
		j.completeLocked()
		return true
	}
	// StopOnViolation: aggregation halted; in-flight ranges will fence or
	// commit into the ledger unaggregated, but nothing blocks completion.
	if j.noMore && j.stopped && len(j.pendingQ) == 0 && j.leasedN == 0 {
		j.completeLocked()
		return true
	}
	return false
}

// completeLocked turns the job done. Every aggregated batch is durable
// by now — nextAgg and stopped only move in finishBatch — so there is
// nothing to flush.
func (j *Job) completeLocked() {
	j.digestSum = j.digest.Sum()
	j.endLocked(StateDone)
}

func (j *Job) failLocked(err error) {
	if j.state != StateRunning {
		return
	}
	j.err = err
	j.endLocked(StateFailed)
}

// endLocked is the one terminal transition: manifest, Done(), and a wake
// for every lease still waiting (they answer done) and the aggregator
// (it exits).
func (j *Job) endLocked(state string) {
	j.state = state
	j.persistLocked()
	close(j.doneCh)
	j.tel.jobsRunning.Add(-1)
	j.wakeLocked()
}

// cancel terminates the job; workers get done on their next request.
func (j *Job) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.digestSum = j.digest.Sum()
	j.endLocked(StateCancelled)
}

func (j *Job) persistLocked() {
	m := jobManifest{
		ID:             j.id,
		Spec:           j.spec,
		State:          j.state,
		Digest:         j.digestSum,
		Explored:       j.resumed + j.aggregated,
		Quarantined:    j.tally.quarantined,
		Subsumed:       j.tally.subsumed,
		Violations:     j.violations,
		FirstViolation: j.tally.firstViolation,
		Exhausted:      j.exhausted,
		Bundles:        j.tally.bundles,
	}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	_ = j.journal.SaveJSON("job.json", m)
}

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
	st := JobStatus{
		ID:             j.id,
		Label:          j.spec.label(),
		Spec:           j.spec,
		State:          j.state,
		Explored:       j.resumed + j.aggregated,
		Resumed:        j.resumed,
		Quarantined:    j.tally.quarantined,
		Subsumed:       j.tally.subsumed,
		Violations:     append([]checkpoint.Violation(nil), j.violations...),
		FirstViolation: j.tally.firstViolation,
		Exhausted:      j.exhausted,
		RangesPending:  len(j.pendingQ),
		RangesLeased:   j.leasedN,
		Requeues:       j.requeues,
		Fenced:         j.fenced,
		Bundles:        append([]string(nil), j.tally.bundles...),
	}
	if j.state != StateRunning {
		st.Digest = j.digestSum
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Digest returns the job's outcome digest sum. Stable only once the job is
// terminal.
func (j *Job) Digest() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return j.digestSum
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

// LeaseKey is the lockserver mutex key guarding a range of this job.
func (j *Job) LeaseKey(rangeID int) string {
	return fmt.Sprintf("erpi/job/%s/range/%d", j.id, rangeID)
}

// leaseToken is the fencing token a worker stores in its lease key:
// worker name plus grant epoch, unique per (re)lease.
func leaseToken(worker string, epoch int) string {
	return fmt.Sprintf("%s/%d", worker, epoch)
}
