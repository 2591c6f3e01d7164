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

// maxRangeLeases is how many times a range may be (re)leased before the
// coordinator declares it poisoned — some interleaving in it keeps killing
// workers — and quarantines the whole range rather than requeue it forever.
const maxRangeLeases = 5

// jobRange is one contiguous slice of the exploration sequence.
type jobRange struct {
	id    int // 1-based, carve order == aggregation order
	start int // global index of ils[0] (1-based exploration position)
	ils   []interleave.Interleaving
	keys  []string

	status    rangeStatus
	epoch     int // fencing token: bumped on every lease
	worker    string
	grantedAt time.Time
	deadline  time.Time // heartbeat deadline; missing it orphans the range
	leases    int       // lifetime lease count (poison detector)
	results   []wireResult
}

// jobManifest is the durable per-job summary (job.json in the journal
// dir), written atomically on every terminal transition and periodically
// during the run.
type jobManifest struct {
	ID             string         `json:"id"`
	Spec           JobSpec        `json:"spec"`
	State          string         `json:"state"`
	Digest         string         `json:"digest,omitempty"`
	Explored       int            `json:"explored"`
	Quarantined    int            `json:"quarantined"`
	Subsumed       int            `json:"subsumed,omitempty"`
	Violations     []JobViolation `json:"violations,omitempty"`
	FirstViolation int            `json:"first_violation,omitempty"`
	Exhausted      bool           `json:"exhausted"`
	Bundles        []string       `json:"bundles,omitempty"`
	Error          string         `json:"error,omitempty"`
}

// JobStatus is a point-in-time snapshot of a job, the unit the jobs API
// serves.
type JobStatus struct {
	ID             string         `json:"id"`
	Label          string         `json:"label"`
	Spec           JobSpec        `json:"spec"`
	State          string         `json:"state"`
	Explored       int            `json:"explored"` // aggregated this session + resumed
	Resumed        int            `json:"resumed"`
	Quarantined    int            `json:"quarantined"`
	Subsumed       int            `json:"subsumed,omitempty"`
	Violations     []JobViolation `json:"violations,omitempty"`
	FirstViolation int            `json:"first_violation,omitempty"`
	Digest         string         `json:"digest,omitempty"` // set once terminal
	Exhausted      bool           `json:"exhausted"`
	RangesPending  int            `json:"ranges_pending"`
	RangesLeased   int            `json:"ranges_leased"`
	Requeues       int            `json:"requeues"`
	Fenced         int            `json:"fence_rejections"`
	// Bundles lists the forensic bundle files captured for this job's
	// violations (under the job's journal directory).
	Bundles []string `json:"bundles,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// genExplorer is the fuzz explorer's generation protocol as carving sees
// it: a generation of children is enumerated, classified by interleaving
// key (by the job's runner.Ledger as ranges aggregate; here only for keys
// resumed from the journal), and the corpus evolves only when every
// emitted child is classified. Distributed fuzzing maps the barrier onto
// range aggregation — carving stops at a generation boundary until every
// carved range has committed and aggregated, then the corpus evolves and
// carving resumes.
type genExplorer interface {
	GenerationEnd() bool
	Pending() int
	Evolve()
	ReportOutcome(key, signature string)
	ReportDropped(key string)
}

// Job is one exploration workload being served to workers. All mutable
// state is guarded by mu; connection goroutines (lease/heartbeat/commit)
// and the janitor (reap/workerGone) contend on it.
type Job struct {
	id  string
	tel *svcTel

	spec      JobSpec
	journal   *checkpoint.Dir
	resLog    *resultLog
	dir       string
	rangeSize int
	leaseTTL  time.Duration

	mu       sync.Mutex
	state    string
	err      error
	explorer interleave.Explorer
	seen     map[string]struct{} // dedup: resumed ∪ carved keys
	// resumedSigs replays classification evidence across restarts
	// (ModeFuzz only): committed key → its original outcome signature, ""
	// for keys that never produced one (subsumed/quarantined). When the
	// regenerated explorer re-emits a resumed key, the original
	// classification is fed back so the corpus trajectory continues
	// exactly where the crashed coordinator left it.
	resumedSigs map[string]string
	resumed     int
	maxNew      int // remaining fresh-interleaving budget
	assigned    int // fresh interleavings carved so far
	noMore      bool
	exhausted   bool

	ranges   []*jobRange
	pendingQ []int // range ids awaiting (re)lease, ascending
	leasedN  int
	nextAgg  int // next range id to aggregate (1-based)

	// ledger is the in-order result ledger committed ranges feed — the same
	// one the in-process driver feeds — accounting into res. An earlier
	// session's Subsumed, FirstViolation and Bundles are restored into res
	// directly; its quarantines survive only as a count.
	ledger      *runner.Ledger
	res         *runner.Result
	quarantined int // quarantined before this session
	aggregated  int // interleavings aggregated this session
	violations  []JobViolation
	fenced      int
	requeues    int
	digest      *Digest
	digestSum   string
	doneCh      chan struct{}
}

// openJob builds (or resumes) a job from its spec and journal directory.
// Resume semantics: keys in explored.log are committed and never re-run —
// their digest contribution and violations replay from results.log —
// while ranges that were leased but never committed simply do not exist in
// the new ledger and get re-carved and re-executed from the explorer.
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
		j.quarantined = m.Quarantined
		j.res.Subsumed = m.Subsumed
		j.violations = m.Violations
		j.res.Bundles = m.Bundles
		j.res.FirstViolation = m.FirstViolation
		j.exhausted = m.Exhausted
		j.noMore = true
		close(j.doneCh)
		return j, nil
	}

	if err := journal.SaveLog(scenario.Log); err != nil {
		return nil, err
	}
	prior, err := journal.LoadExplored()
	if err != nil {
		return nil, err
	}
	for key := range prior {
		j.seen[key] = struct{}{}
	}
	j.resumed = len(prior)

	// Replay results.log for committed keys: digest contributions,
	// quarantine counts, and violations survive a coordinator restart
	// without re-executing anything. Lines whose key never reached the
	// journal (crash between result sync and journal append) are dropped —
	// those interleavings re-execute, which is safe because the digest is
	// keyed and last-write-wins.
	lines, err := loadResultLines(dir)
	if err != nil {
		return nil, err
	}
	if runner.Mode(spec.Mode) == runner.ModeFuzz {
		j.resumedSigs = make(map[string]string)
	}
	for _, line := range lines {
		if _, committed := prior[line.Key]; !committed {
			continue
		}
		switch {
		case line.Subsumed:
			j.res.Subsumed++
		case line.Error != "":
			j.quarantined++
		default:
			j.digest.Add(line.Key, line.Sig)
			if j.resumedSigs != nil {
				j.resumedSigs[line.Key] = line.Sig
			}
		}
		for _, v := range line.Violations {
			j.violations = append(j.violations, v)
			if j.res.FirstViolation == 0 || v.Index < j.res.FirstViolation {
				j.res.FirstViolation = v.Index
			}
		}
	}

	maxIL := spec.MaxInterleavings
	switch {
	case maxIL == 0:
		maxIL = runner.DefaultMaxInterleavings
	case maxIL < 0:
		maxIL = int(^uint(0) >> 1)
	}
	j.maxNew = maxIL - j.resumed
	if j.maxNew < 0 {
		j.maxNew = 0
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
	j.ledger = runner.NewLedger(scenario, cfg, j.explorer, j.res)
	j.resLog, err = openResultLog(dir)
	if err != nil {
		return nil, err
	}
	if err := journal.SaveJSON("job.json", jobManifest{ID: id, Spec: spec, State: StateRunning}); err != nil {
		return nil, err
	}
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

// lease grants the worker a range: a requeued orphan first, else a freshly
// carved slice of the exploration sequence. Returns the reply to send.
func (j *Job) lease(worker string) *wireMsg {
	sp := j.tel.span(telemetry.StageLease)
	defer sp.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return &wireMsg{Type: msgDone, Job: j.id}
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

	if !j.noMore {
		if r := j.carveLocked(); r != nil {
			return j.grantLocked(r, worker)
		}
	}
	if j.checkDoneLocked() {
		return &wireMsg{Type: msgDone, Job: j.id}
	}
	// Work is in flight on other workers; nothing leasable right now.
	return &wireMsg{Type: msgDrain, Job: j.id, RetryMs: j.leaseTTL.Milliseconds() / 4}
}

// carveLocked pulls up to rangeSize fresh interleavings from the explorer,
// skipping keys already seen (journal resume, rand-mode repeats). Returns
// nil when the space or the budget is exhausted — or, in ModeFuzz, when a
// generation boundary holds carving until every outstanding range has
// aggregated and classified (the distributed fuzz barrier: lease answers
// msgDrain meanwhile, and the generation evolves once the ledger drains).
func (j *Job) carveLocked() *jobRange {
	ge, isGen := j.explorer.(genExplorer)
	var ils []interleave.Interleaving
	var keys []string
	start := j.assigned + 1
	for len(ils) < j.rangeSize && j.assigned < j.maxNew {
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
			if isGen {
				// A resumed key never re-executes: replay its original
				// classification so the generation still completes with
				// the evidence the first execution produced.
				if sig, ok := j.resumedSigs[key]; ok && sig != "" {
					ge.ReportOutcome(key, sig)
				} else {
					ge.ReportDropped(key)
				}
			}
			continue
		}
		j.seen[key] = struct{}{}
		ils = append(ils, il)
		keys = append(keys, key)
		j.assigned++
	}
	if j.assigned >= j.maxNew {
		j.noMore = true
	}
	if len(ils) == 0 {
		return nil
	}
	r := &jobRange{id: len(j.ranges) + 1, start: start, ils: ils, keys: keys}
	j.ranges = append(j.ranges, r)
	return r
}

func (j *Job) grantLocked(r *jobRange, worker string) *wireMsg {
	r.status = rangeLeased
	r.epoch++
	r.worker = worker
	r.leases++
	r.grantedAt = time.Now()
	r.deadline = r.grantedAt.Add(j.heartbeatGrace())
	j.leasedN++
	j.tel.rangeLeased()
	return &wireMsg{
		Type:          msgRange,
		Job:           j.id,
		Range:         r.id,
		Epoch:         r.epoch,
		Start:         r.start,
		Interleavings: ilsToWire(r.ils),
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
		j.tel.fenceRejected()
		return false
	}
	r.deadline = time.Now().Add(j.heartbeatGrace())
	j.tel.heartbeat()
	return true
}

// commit accepts a range's results if the fencing epoch still matches,
// marks it committed, and aggregates every range that is now contiguous
// from nextAgg. Returns (accepted, fatal error). A false return with nil
// error is a fence rejection — the zombie-double-commit guard: the range
// was requeued (and possibly re-committed by its new holder), so this
// copy of the results is discarded without touching the journal.
func (j *Job) commit(worker string, rangeID, epoch int, results []wireResult) (bool, error) {
	sp := j.tel.span(telemetry.StageRangeCommit)
	defer sp.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		// A commit into a finished job is by definition stale — its range
		// was either committed by someone else or will never be needed.
		j.fenced++
		j.tel.fenceRejected()
		return false, nil
	}
	r, ok := j.fenceCheckLocked(worker, rangeID, epoch)
	if !ok {
		j.fenced++
		j.tel.fenceRejected()
		return false, nil
	}
	if len(results) != len(r.ils) {
		// Protocol corruption, not a fence: requeue the range and reject.
		j.requeueLocked(r)
		return false, fmt.Errorf("coordinator: commit for range %d has %d results, want %d", rangeID, len(results), len(r.ils))
	}
	r.status = rangeCommitted
	r.results = results
	r.worker = ""
	j.leasedN--
	j.tel.rangeCommitted()
	if err := j.advanceLocked(); err != nil {
		j.failLocked(err)
		return false, err
	}
	j.checkDoneLocked()
	return true, nil
}

// advanceLocked feeds committed ranges, in carve order, through the job's
// ledger — the reorder buffer that makes stateful assertions see the exact
// sequential outcome sequence. What stays here is what is distributed:
// the keyed digest, the wire form of violations, and the durability order
// per range — result lines are written and synced *before* the journal
// keys are appended, so a journaled key always has a durable result line
// (the resume path depends on it).
func (j *Job) advanceLocked() error {
	for j.nextAgg <= len(j.ranges) {
		r := j.ranges[j.nextAgg-1]
		if r.status != rangeCommitted {
			break
		}
		lines := make([]resultLine, len(r.results))
		for i := range r.results {
			res := &r.results[i]
			index, key := r.start+i, r.keys[i]
			line := resultLine{Index: index, Key: key, Attempts: res.Attempts}
			var outcome *runner.Outcome
			var execErr error
			switch {
			case res.Subsumed:
				// Pruned by the worker's subsumption table: consumes its
				// index and journal slot, contributes nothing to the digest.
				line.Subsumed = true
				execErr = runner.ErrSubsumed
				j.tel.subsumed()
			case res.Error != "" || res.Outcome == nil:
				line.Error = res.Error
				if line.Error == "" {
					line.Error = "coordinator: result carries no outcome"
				}
				execErr = errors.New(line.Error)
				j.tel.quarantined()
			default:
				outcome = res.Outcome.outcome(index, r.ils[i])
				line.Sig = runner.OutcomeSignature(outcome)
				j.digest.Add(key, line.Sig)
			}
			for _, v := range j.ledger.Record(index, r.ils[i], outcome, res.Attempts, execErr) {
				line.Violations = append(line.Violations,
					JobViolation{Index: index, Key: key, Assertion: v.Assertion, Error: v.Err.Error()})
			}
			j.violations = append(j.violations, line.Violations...)
			lines[i] = line
			j.aggregated++
		}
		for _, line := range lines {
			if err := j.resLog.append(line); err != nil {
				return err
			}
		}
		if err := j.resLog.sync(); err != nil {
			return err
		}
		for _, il := range r.ils {
			if err := j.journal.AppendExplored(il); err != nil {
				return err
			}
		}
		// Free the aggregated payloads; the ledger entry stays for fencing.
		r.ils, r.results = nil, nil
		j.nextAgg++

		if j.ledger.Stopped() {
			j.noMore = true
			j.pendingQ = nil
			return nil
		}
	}
	return nil
}

// poisonLocked quarantines an entire range that has burned through its
// lease budget — every result is recorded as a quarantine error, so the
// job terminates with partial results instead of requeueing a
// worker-killing interleaving forever.
func (j *Job) poisonLocked(r *jobRange) {
	r.status = rangeCommitted
	r.worker = ""
	r.results = make([]wireResult, len(r.ils))
	for i := range r.results {
		r.results[i] = wireResult{
			Index: r.start + i,
			Key:   r.keys[i],
			Error: fmt.Sprintf("coordinator: range %d abandoned after %d failed leases", r.id, r.leases),
		}
	}
	j.tel.rangePoisoned()
	if err := j.advanceLocked(); err != nil {
		j.failLocked(err)
	}
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
	j.tel.rangeRequeued()
	j.pendingQ = append(j.pendingQ, r.id)
	sort.Ints(j.pendingQ)
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
	if j.noMore && j.ledger.Stopped() && len(j.pendingQ) == 0 && j.leasedN == 0 {
		j.completeLocked()
		return true
	}
	return false
}

func (j *Job) completeLocked() {
	j.state = StateDone
	j.digestSum = j.digest.Sum()
	_ = j.journal.Flush()
	j.persistLocked()
	close(j.doneCh)
	j.tel.jobFinished()
}

func (j *Job) failLocked(err error) {
	if j.state != StateRunning {
		return
	}
	j.state = StateFailed
	j.err = err
	j.persistLocked()
	close(j.doneCh)
	j.tel.jobFinished()
}

// cancel terminates the job; workers get done on their next request.
func (j *Job) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.state = StateCancelled
	j.digestSum = j.digest.Sum()
	_ = j.journal.Flush()
	j.persistLocked()
	close(j.doneCh)
	j.tel.jobFinished()
}

func (j *Job) persistLocked() {
	m := jobManifest{
		ID:             j.id,
		Spec:           j.spec,
		State:          j.state,
		Digest:         j.digestSum,
		Explored:       j.resumed + j.aggregated,
		Quarantined:    j.quarantined + len(j.res.Quarantined),
		Subsumed:       j.res.Subsumed,
		Violations:     j.violations,
		FirstViolation: j.res.FirstViolation,
		Exhausted:      j.exhausted,
		Bundles:        j.res.Bundles,
	}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	_ = j.journal.SaveJSON("job.json", m)
}

// closeFiles releases the job's file handles (service shutdown).
func (j *Job) closeFiles() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.resLog != nil {
		_ = j.resLog.close()
		j.resLog = nil
	}
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
		Quarantined:    j.quarantined + len(j.res.Quarantined),
		Subsumed:       j.res.Subsumed,
		Violations:     append([]JobViolation(nil), j.violations...),
		FirstViolation: j.res.FirstViolation,
		Exhausted:      j.exhausted,
		RangesPending:  len(j.pendingQ),
		RangesLeased:   j.leasedN,
		Requeues:       j.requeues,
		Fenced:         j.fenced,
		Bundles:        append([]string(nil), j.res.Bundles...),
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
