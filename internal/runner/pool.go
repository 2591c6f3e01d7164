package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/er-pi/erpi/internal/datalog"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/telemetry"
)

// This file is the exploration driver — the paper's one loop (§4.3–§4.4:
// generate → replay → reset → check) at every worker count. Exploration
// of an interleaving space parallelizes cleanly because every
// interleaving executes against a private cluster that is reset to the
// pristine checkpoint first: executing interleaving N is a pure function
// of (event log, interleaving, fault schedule, exploration index), never
// of what ran before it on the same worker.
//
// Topology: workers that serve themselves — no driver goroutine, no
// channel. One mutex (pool.mu) guards the explorer, the dedup set, the
// datalog store, the queue of carved runs and the result Ledger (and with
// it the record log); each worker owns a private Executor. A worker that
// wants work takes the mutex and
//
//   - drains: feeds Ledger.Record every published result of the head run
//     (the oldest carved run not yet fully recorded) in index order, pops a
//     finished head and continues into the next run;
//   - carves: pulls a run of consecutive interleavings from the explorer in
//     its native order — each given a stable 1-based index, deduped and
//     stored at that moment — and queues the run;
//
// then executes the run outside the mutex, publishing each result as it
// completes (slots[i], then the atomic done = i+1). Results must stream — a
// deadline or a StopOnViolation cannot wait for a run to end — so the head
// run's owner also drains after each item, with TryLock: never blocking,
// since whoever holds the mutex is draining or about to carve, and the owner
// drains for certain when it comes back for its next run.
//
// The one lock-free step is an owner noticing that its run has become the
// head. The owner stores r.done and then loads r.head; the drainer that pops
// the previous head stores r.head and then loads r.done. Both are
// sync/atomic values, so the four operations are totally ordered and the
// two loads cannot both miss: an owner that still reads head = false stored
// done before the drainer's store of head, hence before the drainer's load
// of done, which sees the result. Nothing is lost either way — at worst a
// result waits for its owner's next publication or next carve.
//
// Ledger.Record — and with it OnOutcome and Assertion.Check, caller-supplied
// code — runs under the mutex. That keeps ModeFuzz classification ordered
// against carving without a second lock, and it is safe: the pool has no
// entry point a callback could reach, cancelling the run's context from a
// callback takes no pool lock, and a callback that blocks stalled the run
// before this topology too (it blocked the driver goroutine).
//
// Run length is a function of counts only: min(maxRun, left/(4·workers)), at
// least 1, left being what the cap still allows (runs shrink towards the end
// so the workers finish together), and always 1 at one worker, which then
// executes inline on the caller's goroutine.
// Carving runs ahead of recording by at most runsAhead runs per worker, so a
// stalled head parks a bounded number of outcomes. DESIGN.md §4.7 has the
// measurements behind both constants.
//
// Deterministic regardless of worker count and of where runs are cut:
//   - which interleavings execute, their indices, and the record log (one
//     record per recorded index, appended by Ledger.Record in index order);
//   - Outcome delivery order to OnOutcome and to assertions (stateful
//     assertions see one history);
//   - Violations, Quarantined, FirstViolation, and — on a completed or
//     StopOnViolation run — Explored;
//   - probabilistic fault arming (keyed by index, not by execution order).
//
// Best-effort (may differ between worker counts):
//   - Duration, and retry-backoff jitter timing (per-worker generators);
//   - on StopOnViolation, work past the violating index may already have
//     executed; its results are discarded, but store entries for those
//     indices remain (a safe over-approximation: store facts are monotone);
//   - on interruption, Explored counts results that reached the ledger
//     before the cancellation was observed, while the explorer may have
//     been pulled further ahead — by up to the carve-ahead bound (ModeRand's
//     RandShuffles reflects that ahead-pulling). Those indices have no
//     record, so a resumed session carves them again.
//
// Two barriers quiesce the pool by the same mechanics: while one is armed
// nothing is carved, workers wait on pool.idle until the queue of carved
// runs is empty — every execution has returned, every result is recorded —
// and whoever finds it empty acts, under the mutex. ConstraintPoll
// re-pruning arms at the poll boundary index, the last of its run; the poll
// then (maybe) regenerates the explorer, so poll points fall at the same
// indices at every worker count, at the cost of a bubble in the pipeline
// every PollEvery interleavings. ModeFuzz (DESIGN.md §4.14) arms when its
// generation's synthesis buffer is drained and evolves the corpus once every
// child is classified, so which permutations enter it depends only on the
// seed and the classified signatures, never on worker count or completion
// order.
type pool struct {
	ctx      context.Context
	s        Scenario
	cfg      Config
	res      *Result
	ledger   *Ledger
	explorer interleave.Explorer
	explored *exploredSet
	pruning  prune.Config
	maxIndex int // the session-wide cap: the highest index that may exist
	workers  int

	// runLen is the run-length rule (defaultRunLen outside tests): how many
	// indices the next run may take, given how many the cap still allows.
	runLen func(left, workers int) int
	// every is the executors' snapshot stride (defaultPrefixSnapshotEvery
	// outside tests).
	every int

	tel *runTelemetry
	// sub is the run's shared subsumption table (nil when disabled),
	// flushed at the re-prune quiesce barrier, where no execution is in
	// flight.
	sub *subsumeTable

	// cancel ends the workers' context, so replays in flight at a halt return
	// at their next event. halted is set by stop (violation stop,
	// interruption, fatal error) under mu; workers read it between items.
	cancel context.CancelFunc
	halted atomic.Bool

	mu sync.Mutex
	// idle is signalled whenever a run leaves the queue: barrier waiters
	// need it empty, carve-ahead waiters need it below the bound.
	idle sync.Cond

	// Guarded by mu.
	queue    []*run    // carved runs not yet fully recorded, in index order
	err      error     // first fatal error; fails the run
	assigned int       // the highest index that exists (resumed ones included)
	nextProc int       // next index the ledger takes
	gen      uint64    // re-prune generation stamped on pulled items
	noMore   bool      // no further assignment (cap/exhausted/crash/halt)
	pollWait bool      // quiescing for a ConstraintPoll boundary: index assigned
	pollSkip bool      // boundary index produced no outcome: skip this poll
	genWait  bool      // quiescing for a fuzz generation boundary
	since    time.Time // when the armed barrier armed (tel only)
}

// maxRun caps a run's length; runsAhead, per worker, how many carved runs
// may await recording.
const maxRun, runsAhead = 16, 4

// defaultRunLen is the run-length rule: counts only, never wall time.
func defaultRunLen(left, workers int) int {
	if workers == 1 {
		return 1
	}
	return min(maxRun, left/(4*workers))
}

// run is a carved run of consecutive indices: its owner fills in the results
// and advances done, the drainer (under pool.mu) advances fed.
type run struct {
	slots []workResult
	done  atomic.Int32 // slots[:done] hold published results
	head  atomic.Bool  // first in the queue: its owner streams
	fed   int          // slots[:fed] reached the ledger; all of them: popped
}

// workItem is one interleaving handed to a worker, tagged with the stable
// exploration index assigned at carve time, the explorer's next-pivot hint
// captured at pull time (-1 when unavailable), and the re-prune
// generation it was pulled under.
type workItem struct {
	index int
	il    interleave.Interleaving
	pivot int
	// gen counts explorer regenerations (ConstraintPoll re-pruning) before
	// this item was pulled. A worker that sees it move flushes its private
	// prefix cache: the cache would otherwise hold branches the new
	// sequence never walks.
	gen uint64
}

// workResult is a work item and, once executed, what the ledger needs of it.
type workResult struct {
	workItem
	outcome  *Outcome
	attempts int
	err      error
}

// run explores with the pool's workers — executors on the inline schedule,
// or on the gated one when live — feeding p.ledger; see the guarantees
// above. One worker is the caller's goroutine.
func (p *pool) run(live bool) error {
	p.idle.L = &p.mu
	wctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	p.cancel = cancel
	var wg sync.WaitGroup
	for w := 1; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.work(wctx, w, live)
		}(w)
	}
	p.work(wctx, 0, live)
	wg.Wait()
	if p.err != nil {
		return p.err
	}
	// A generation that completed exactly at the cap still evolves; a
	// partial one never does (evolveFuzz guards both).
	p.evolveFuzz()
	p.tel.poolParked.Set(0) // a stop discards what was parked
	p.finalize()
	return nil
}

// work is one worker: acquire a run, execute it, publish each result.
func (p *pool) work(ctx context.Context, w int, live bool) {
	var x *Executor
	var r *run
	for {
		if r = p.acquire(w, r); r == nil {
			return
		}
		if x == nil {
			// Built once there is work for it. A setup failure is fatal for the
			// run; execution failures are per-interleaving results.
			var err error
			if x, err = newExecutor(p.s, p.cfg, w, p.tel, p.sub, live, p.every); err != nil {
				p.mu.Lock()
				p.fail(err)
				p.mu.Unlock()
				return
			}
		}
		for i := range r.slots {
			if p.halted.Load() {
				return
			}
			r.slots[i] = x.run(ctx, r.slots[i].workItem)
			r.done.Store(int32(i + 1))
			p.tel.poolParked.Add(1)
			// Stream the head run's results; the last one is drained by the
			// acquire that follows.
			if i+1 < len(r.slots) && r.head.Load() && p.mu.TryLock() {
				p.drain()
				p.mu.Unlock()
			}
		}
	}
}

// acquire returns the worker's next run, or nil when nothing is left for it:
// drain, wait out an armed barrier or a full carve-ahead window, carve. prev
// is the worker's previous run, recycled once it has left the queue.
func (p *pool) acquire(w int, prev *run) *run {
	asked := p.tel.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		p.drain()
		switch {
		case p.noMore:
			return nil
		case (p.pollWait || p.genWait) && len(p.queue) == 0:
			p.quiesced()
		case p.pollWait || p.genWait || len(p.queue) >= runsAhead*p.workers:
			p.idle.Wait()
		default:
			if r := p.carve(prev); r != nil {
				// Dispatch span, on the worker's lane, from asking for work to
				// holding a run: lock, barrier and back-pressure waits, the carve.
				p.tel.observeSince(telemetry.StageDispatch, r.slots[0].index, w, asked)
				return r
			}
		}
	}
}

// drain feeds the ledger every published result of the head run in index
// order, pops a finished head and continues into the next run. Caller
// holds mu.
func (p *pool) drain() {
	for len(p.queue) > 0 { // empty once halted
		r := p.queue[0]
		for n := int(r.done.Load()); r.fed < n; r.fed++ {
			// Results already recorded stand; once the context is dead, later
			// ones are discarded.
			if err := p.ctx.Err(); err != nil {
				p.interrupt(err)
				return
			}
			p.nextProc++
			p.tel.poolParked.Add(-1)
			p.process(r.slots[r.fed])
			if p.halted.Load() {
				return
			}
		}
		if r.fed < len(r.slots) {
			return // the head is still executing
		}
		p.queue = p.queue[:copy(p.queue, p.queue[1:])]
		if len(p.queue) > 0 {
			p.queue[0].head.Store(true)
		}
		p.idle.Broadcast()
	}
}

// carve cuts the next run out of the explorer and queues it: up to runLen
// indices, ending at a ConstraintPoll boundary (the run's last index; it arms
// the barrier) and wherever pull stops. Nil: nothing to carve now. Holds mu.
func (p *pool) carve(prev *run) *run {
	// At least one: the pull that finds nothing left is what ends assignment.
	n := max(1, p.runLen(p.maxIndex-p.assigned, p.workers))
	r := prev
	if r == nil || r.fed < len(r.slots) { // none, or still queued: a new one
		r = &run{slots: make([]workResult, 0, min(n, maxRun))}
	}
	r.slots = r.slots[:0]
	for len(r.slots) < n {
		item, ok := p.pull()
		if !ok {
			break
		}
		r.slots = append(r.slots, workResult{workItem: item})
		if p.cfg.ConstraintPoll != nil && p.cfg.Mode == ModeERPi && item.index%p.cfg.PollEvery == 0 {
			p.pollWait = true
			p.since = p.tel.now()
			break
		}
	}
	if len(r.slots) == 0 || p.halted.Load() {
		return nil
	}
	r.done.Store(0)
	r.fed = 0
	p.queue = append(p.queue, r)
	r.head.Store(len(p.queue) == 1)
	p.tel.poolRuns.Inc()
	return r
}

// pull advances the explorer to the next fresh interleaving, assigns its
// index, and stores it. ok=false means nothing was assigned: assignment
// stopped (noMore; a store failure also fails the run), or a fuzz
// generation must quiesce first (genWait). Caller holds mu.
func (p *pool) pull() (item workItem, ok bool) {
	for {
		if p.assigned >= p.maxIndex {
			p.noMore = true
			return item, false
		}
		if err := p.ctx.Err(); err != nil {
			p.interrupt(err)
			return item, false
		}
		if ge := p.ledger.ge; ge != nil && ge.GenerationEnd() {
			// Fuzz generation boundary: the synthesis buffer is empty, so
			// the next Next() would evolve the corpus. That is only sound
			// once every emitted child has executed and classified.
			if p.nextProc <= p.assigned {
				p.genWait = true
				p.since = p.tel.now()
				return item, false
			}
			p.evolveFuzz()
		}
		genSpan := p.tel.span(telemetry.StageGenerate, p.assigned+1, telemetry.CoordinatorWorker)
		il, more := p.explorer.Next()
		genSpan.End()
		if !more {
			p.res.Exhausted = true
			p.noMore = true
			return item, false
		}
		dedupSpan := p.tel.span(telemetry.StageDedup, p.assigned+1, telemetry.CoordinatorWorker)
		dup := p.explored.seen(il)
		dedupSpan.End()
		if dup {
			// A resumed record, or re-pruning regenerated the explorer. The
			// key never executes: classify it so a fuzz generation can still
			// complete.
			p.tel.dedupSkipped.Inc()
			if p.ledger.ge != nil {
				p.ledger.Skipped(il.Key())
			}
			continue
		}
		if p.explored.Saturated() {
			p.tel.progress.SetDedupSaturated()
		}
		p.assigned++
		p.tel.explored.Inc()
		if p.cfg.Store != nil {
			if err := p.cfg.Store.Record(il); err != nil {
				if errors.Is(err, datalog.ErrBudgetExhausted) {
					// The crashing index counts as explored but never
					// executes (the Figure 10 "crash").
					p.res.Crashed = true
					p.res.CrashErr = err
					p.noMore = true
				} else {
					p.fail(err)
				}
				return item, false
			}
		}
		return workItem{index: p.assigned, il: il, pivot: pivotOf(p.explorer), gen: p.gen}, true
	}
}

// process hands one result, in index order, to the ledger and acts on its
// stop decision.
func (p *pool) process(r workResult) {
	if r.err != nil {
		if err := p.ctx.Err(); err != nil {
			// The execution died with the run's context: interruption,
			// not a quarantine.
			p.interrupt(err)
			return
		}
		if p.pollWait && r.index == p.assigned {
			// A boundary interleaving that was subsumed or quarantined
			// produced no outcome to poll constraints after.
			p.pollSkip = true
		}
	}
	if _, err := p.ledger.Record(r.index, r.il, r.outcome, r.attempts, r.err); err != nil {
		p.fail(err)
		return
	}
	if p.ledger.Stopped() {
		p.stop()
	}
}

// interrupt records the dead context on the Result and halts the pool.
func (p *pool) interrupt(err error) {
	p.res.Interrupted = true
	p.res.InterruptErr = err
	p.stop()
}

// fail records the first fatal error and halts the pool; run returns it.
func (p *pool) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.stop()
}

// stop halts assignment and recording: queued runs are discarded, their
// owners stop between items, and the replays in flight are cancelled.
func (p *pool) stop() {
	p.noMore = true
	p.halted.Store(true)
	p.pollWait = false
	p.genWait = false
	p.queue = nil
	p.cancel()
	p.idle.Broadcast()
}

// quiesced runs what the armed barrier was waiting for, now that the queue
// is empty and so no execution is in flight.
func (p *pool) quiesced() {
	// Quiesce span: from arming the barrier until the pool fully drained —
	// the pipeline bubble it costs, a coordinator-lane gap in the Chrome trace.
	p.tel.observeSince(telemetry.StageQuiesce, p.assigned, telemetry.CoordinatorWorker, p.since)
	if p.genWait {
		p.genWait = false
		p.evolveFuzz()
		return
	}
	p.pollWait = false
	if err := p.poll(); err != nil {
		p.fail(err)
	}
}

// evolveFuzz folds a fully-classified generation into the fuzzer's corpus
// under a StageFuzzEvolve span and publishes the corpus gauges. Children
// that never executed (assignment crashed mid-generation) leave Pending
// non-zero; the corpus must not evolve on partial evidence. No-op for
// non-fuzz explorers.
func (p *pool) evolveFuzz() {
	ge := p.ledger.ge
	if ge == nil || !ge.GenerationEnd() || ge.Pending() != 0 {
		return
	}
	span := p.tel.span(telemetry.StageFuzzEvolve, p.assigned, telemetry.CoordinatorWorker)
	ge.Evolve()
	span.End()
	p.tel.onFuzzGeneration(ge.CorpusSize(), ge.NoveltyRate())
}

// poll runs the quiesced ConstraintPoll and regenerates the explorer over
// the merged pruning config when new constraints arrived. Interleavings
// the regenerated explorer re-yields are skipped by the dedup set.
func (p *pool) poll() error {
	if p.pollSkip {
		p.pollSkip = false
		return nil
	}
	extra, found, err := p.cfg.ConstraintPoll()
	if err != nil {
		return fmt.Errorf("runner: constraints: %w", err)
	}
	if found {
		p.pruning.Merge(extra)
		repruneSpan := p.tel.span(telemetry.StagePrune, p.assigned, telemetry.CoordinatorWorker)
		explorer, err := newExplorer(p.s, p.cfg, p.pruning)
		repruneSpan.End()
		if err != nil {
			return fmt.Errorf("runner: re-pruning: %w", err)
		}
		p.explorer = explorer
		// Items pulled from the new sequence carry the new generation, so
		// each worker flushes its private prefix cache before running one;
		// the shared subsumption table is flushed here, under the barrier,
		// so skips are justified against the new enumeration only.
		p.gen++
		if p.sub != nil {
			p.tel.subsumeBytes.Add(-p.sub.invalidate())
		}
	}
	return nil
}

// finalize settles Explored — this session's share of the indices — and
// the run flags once the pool has drained.
func (p *pool) finalize() {
	res := p.res
	switch {
	case p.ledger.Stopped():
		// Nothing past the first violation counts: truncate to it and drop
		// flags that only later (discarded) work could have set.
		res.Explored = max(0, res.FirstViolation-res.Resumed)
		res.Exhausted = false
		res.Crashed = false
		res.CrashErr = nil
	case res.Interrupted:
		res.Explored = p.nextProc - 1 - res.Resumed // results recorded in order
	default:
		res.Explored = p.assigned - res.Resumed
	}
	if r, ok := p.explorer.(*interleave.RandExplorer); ok {
		res.RandShuffles = r.Shuffles()
	}
}
