package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
// Topology: the driver (the caller's goroutine) owns the explorer, the
// dedup set, the journal, the datalog store, and the result Ledger;
// workers own a private Executor each. Interleavings are pulled from the
// explorer in its native order and tagged with a stable 1-based index at
// assignment time. With one worker the driver executes each pulled item
// inline, on its own goroutine: no worker goroutine, no channel hop, and
// results are in order by construction. With more, items are dispatched
// over an unbuffered channel; results return on a buffered channel and
// are parked in a reorder buffer until every lower index has reached the
// ledger.
//
// Deterministic regardless of worker count:
//   - which interleavings execute, their indices, and the journal order;
//   - Outcome delivery order to OnOutcome and to assertions (stateful
//     assertions see one history);
//   - Violations, Quarantined, FirstViolation, and — on a completed or
//     StopOnViolation run — Explored;
//   - probabilistic fault arming (keyed by index, not by execution order).
//
// Best-effort (may differ between worker counts):
//   - Duration, and retry-backoff jitter timing (per-worker generators);
//   - on StopOnViolation, work past the violating index may already have
//     executed; its results are discarded, but journal/store entries for
//     those indices remain (safe over-approximations: a journal key only
//     suppresses re-execution on resume, and store facts are monotone);
//   - on interruption, Explored counts results that reached the ledger
//     before the cancellation was observed, while the explorer may have
//     been pulled further ahead (ModeRand's RandShuffles reflects that
//     ahead-pulling).
//
// ConstraintPoll re-pruning quiesces the pool: the poll boundary index is
// dispatched, the driver drains every in-flight execution and records all
// results, and only then polls and (maybe) regenerates the explorer — a
// barrier, so poll points fall at the same indices at every worker count,
// at the cost of a bubble in the pipeline every PollEvery interleavings.
//
// ModeFuzz reuses those quiesce mechanics as its generation barrier
// (DESIGN.md §4.14): the fuzzer synthesizes a whole generation of mutated
// children up front, the pool pipelines them across all workers, and when
// the synthesis buffer drains the driver waits for every in-flight child
// to return and classify before letting the corpus evolve — so which
// permutations enter the corpus depends only on the seed and the
// classified signatures, never on worker count or completion order.
type pool struct {
	ctx      context.Context
	s        Scenario
	cfg      Config
	res      *Result
	ledger   *Ledger
	explorer interleave.Explorer
	explored *exploredSet
	pruning  prune.Config
	maxNew   int

	// inline, when non-nil, is the single worker the driver runs on its own
	// goroutine; the channels are nil then.
	inline  *Executor
	workCh  chan workItem
	resCh   chan workResult
	fatalCh chan error

	// tel is nil when telemetry is off; all uses are nil-safe.
	tel *runTelemetry
	// sub is the run's shared subsumption table (nil when disabled),
	// flushed at the re-prune quiesce barrier, where no execution is in
	// flight.
	sub *subsumeTable
	// nextSince / pollSince anchor the dispatch-wait and quiesce-gap spans
	// (valid only while tel is non-nil).
	nextSince time.Time
	pollSince time.Time

	// Driver-only state (no locking: single goroutine).
	assigned int                // indices handed out; the highest index that exists
	nextProc int                // next index the ledger takes
	pending  map[int]workResult // reorder buffer: arrived ahead of nextProc
	inflight int                // dispatched and not yet returned
	next     workItem           // pulled from the explorer, not yet dispatched
	hasNext  bool               // next is valid
	gen      uint64             // re-prune generation stamped on pulled items
	noMore   bool               // no further assignment (cap/exhausted/crash/halt)
	halted   bool               // stop recording too; drain and discard (stop/interrupt)
	pollWait bool               // quiescing for a ConstraintPoll boundary
	pollIdx  int                // the boundary index being drained
	pollSkip bool               // boundary index produced no outcome: skip this poll
	genWait  bool               // quiescing for a fuzz generation boundary
	genSince time.Time          // when the fuzz barrier armed (tel only)
}

// workItem is one interleaving handed to a worker, tagged with the stable
// exploration index the driver assigned, the explorer's next-pivot hint
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

// workResult is one executed interleaving flowing back to the driver.
type workResult struct {
	index    int
	il       interleave.Interleaving
	outcome  *Outcome
	attempts int
	err      error
}

// run explores with the pool's workers — executors on the inline schedule,
// or on the gated one when live — feeding p.ledger; see the guarantees above.
func (p *pool) run(workers int, live bool) error {
	if workers == 1 {
		x, err := newExecutor(p.s, p.cfg, 0, p.tel, p.sub, live)
		if err != nil {
			return err
		}
		p.inline = x
	} else {
		defer p.startWorkers(workers, live)()
	}
	if err := p.coordinate(); err != nil {
		return err
	}
	p.finalize()
	return nil
}

// startWorkers launches the worker goroutines and returns the function
// that shuts them down: cancel in-flight executions, unblock workers
// waiting for work, and wait for them to finish. The buffered result
// channel absorbs any final sends.
func (p *pool) startWorkers(workers int, live bool) (stop func()) {
	wctx, cancelWorkers := context.WithCancel(p.ctx)
	p.workCh = make(chan workItem)
	// resCh and fatalCh hold one slot per worker, so workers always send
	// without blocking (each worker has at most one outstanding result)
	// and shutdown can never deadlock.
	p.resCh = make(chan workResult, workers)
	p.fatalCh = make(chan error, workers)
	p.pending = make(map[int]workResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Setup failures are fatal for the whole run; execution
			// failures are per-interleaving results.
			x, err := newExecutor(p.s, p.cfg, w, p.tel, p.sub, live)
			if err != nil {
				p.fatalCh <- err
				return
			}
			for item := range p.workCh {
				p.resCh <- x.run(wctx, item)
			}
		}(w)
	}
	return func() {
		cancelWorkers()
		close(p.workCh)
		wg.Wait()
	}
}

// coordinate is the producer + aggregator loop.
func (p *pool) coordinate() error {
	for {
		if !p.noMore && !p.pollWait && !p.genWait && !p.hasNext {
			if err := p.pull(); err != nil {
				return err
			}
		}
		if p.pollWait && p.inflight == 0 && p.nextProc > p.assigned {
			// Quiesced: everything assigned is executed and recorded.
			if err := p.poll(); err != nil {
				return err
			}
			continue
		}
		if p.genWait && p.inflight == 0 && p.nextProc > p.assigned {
			// Fuzz generation quiesced: every child of the generation is
			// executed, recorded, and classified — safe to evolve.
			p.genWait = false
			if p.tel != nil {
				p.tel.observeSpan(telemetry.StageQuiesce, p.assigned, telemetry.CoordinatorWorker,
					p.genSince, time.Since(p.genSince))
			}
			p.evolveFuzz()
			continue
		}
		if !p.hasNext && p.inflight == 0 {
			// A generation that completed exactly at the cap still evolves;
			// a partial one never does (evolveFuzz guards both).
			p.evolveFuzz()
			return nil // nothing to dispatch, nothing in flight: done
		}
		switch {
		case p.hasNext && p.inline != nil:
			item := p.next
			p.dispatched()
			p.receive(p.inline.run(p.ctx, item))
		case p.hasNext:
			select {
			case p.workCh <- p.next:
				p.dispatched()
			case r := <-p.resCh:
				p.receive(r)
			case err := <-p.fatalCh:
				return err
			}
		default:
			select {
			case r := <-p.resCh:
				p.receive(r)
			case err := <-p.fatalCh:
				return err
			}
		}
	}
}

// pull advances the explorer to the next fresh interleaving, assigns its
// index, and journals/records it. It either sets p.next or stops
// assignment.
func (p *pool) pull() error {
	for {
		if p.assigned >= p.maxNew {
			p.noMore = true
			return nil
		}
		if err := p.ctx.Err(); err != nil {
			p.interrupt(err)
			return nil
		}
		if ge := p.ledger.ge; ge != nil && ge.GenerationEnd() {
			// Fuzz generation boundary: the synthesis buffer is empty, so
			// the next Next() would evolve the corpus. That is only sound
			// once every emitted child has executed and classified.
			if p.inflight > 0 || p.nextProc <= p.assigned {
				p.genWait = true
				if p.tel != nil {
					p.genSince = time.Now()
				}
				return nil
			}
			p.evolveFuzz()
		}
		genSpan := p.tel.span(telemetry.StageGenerate, p.assigned+1, telemetry.CoordinatorWorker)
		il, ok := p.explorer.Next()
		genSpan.End()
		if !ok {
			p.res.Exhausted = true
			p.noMore = true
			return nil
		}
		key := il.Key()
		dedupSpan := p.tel.span(telemetry.StageDedup, p.assigned+1, telemetry.CoordinatorWorker)
		dup := p.explored.Has(key)
		if !dup && !p.explored.Add(key) {
			p.tel.onDedupSaturated()
		}
		dedupSpan.End()
		if dup {
			// Journal resume, or re-pruning regenerated the explorer. The key
			// never executes: classify it as yielding no corpus evidence so
			// a fuzz generation can still complete.
			p.tel.onDedupSkipped()
			if ge := p.ledger.ge; ge != nil {
				ge.ReportDropped(key)
			}
			continue
		}
		p.assigned++
		p.tel.onExplored()
		if p.cfg.Journal != nil {
			if err := p.cfg.Journal.AppendExplored(il); err != nil {
				return err
			}
		}
		if p.cfg.Store != nil {
			if err := p.cfg.Store.Record(il); err != nil {
				if errors.Is(err, datalog.ErrBudgetExhausted) {
					// The crashing index counts as explored but never
					// executes (the Figure 10 "crash").
					p.res.Crashed = true
					p.res.CrashErr = err
					p.noMore = true
					return nil
				}
				return err
			}
		}
		p.next = workItem{index: p.assigned, il: il, pivot: pivotOf(p.explorer), gen: p.gen}
		p.hasNext = true
		if p.tel != nil {
			p.nextSince = time.Now()
		}
		return nil
	}
}

// dispatched notes that p.next went out and arms the poll barrier when
// the index is a poll boundary.
func (p *pool) dispatched() {
	index := p.next.index
	p.hasNext = false
	p.inflight++
	if p.tel != nil {
		// Dispatch span: how long the pulled interleaving waited for a free
		// worker — back-pressure from a saturated pool shows up here.
		p.tel.observeSpan(telemetry.StageDispatch, index, telemetry.CoordinatorWorker,
			p.nextSince, time.Since(p.nextSince))
	}
	if p.cfg.ConstraintPoll != nil && p.cfg.Mode == ModeERPi && index%p.cfg.PollEvery == 0 {
		p.pollWait = true
		p.pollIdx = index
		if p.tel != nil {
			p.pollSince = time.Now()
		}
	}
}

// receive takes one returned result: ahead of its turn it is parked in
// the reorder buffer; at its turn it — and every parked result that is
// now next — goes to the ledger in index order.
func (p *pool) receive(r workResult) {
	p.inflight--
	if r.index != p.nextProc {
		p.pending[r.index] = r
		return
	}
	for ok := true; ok && !p.halted; r, ok = p.takePending() {
		// Results already recorded stand; once the context is dead, later
		// ones are discarded.
		if err := p.ctx.Err(); err != nil {
			p.interrupt(err)
			return
		}
		p.nextProc++
		p.process(r)
	}
}

// takePending removes and returns the parked result for nextProc.
func (p *pool) takePending() (workResult, bool) {
	r, ok := p.pending[p.nextProc]
	if ok {
		delete(p.pending, p.nextProc)
	}
	return r, ok
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
		if p.pollWait && r.index == p.pollIdx {
			// A boundary interleaving that was subsumed or quarantined
			// produced no outcome to poll constraints after.
			p.pollSkip = true
		}
	}
	p.ledger.Record(r.index, r.il, r.outcome, r.attempts, r.err)
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

// stop halts assignment and recording; in-flight work is drained and
// discarded.
func (p *pool) stop() {
	p.noMore = true
	p.halted = true
	p.hasNext = false
	p.pollWait = false
	p.genWait = false
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
	p.tel.onFuzzGeneration(ge.Generations(), ge.CorpusSize(), ge.NoveltyRate())
}

// poll runs the quiesced ConstraintPoll and regenerates the explorer over
// the merged pruning config when new constraints arrived. Interleavings
// the regenerated explorer re-yields are skipped by the dedup set.
func (p *pool) poll() error {
	p.pollWait = false
	if p.tel != nil {
		// Quiesce span: from arming the poll barrier at dispatch of the
		// boundary index until the pool fully drained — the pipeline bubble
		// each ConstraintPoll costs, visible as a coordinator-lane gap in
		// the Chrome trace.
		p.tel.observeSpan(telemetry.StageQuiesce, p.pollIdx, telemetry.CoordinatorWorker,
			p.pollSince, time.Since(p.pollSince))
	}
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
		repruneSpan := p.tel.span(telemetry.StagePrune, p.pollIdx, telemetry.CoordinatorWorker)
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
			p.tel.onSubsumeBytes(-p.sub.invalidate())
		}
	}
	return nil
}

// finalize settles Explored and the run flags once the pool has drained.
func (p *pool) finalize() {
	res := p.res
	switch {
	case p.ledger.Stopped():
		// Nothing past the first violation counts: truncate to it and drop
		// flags that only later (discarded) work could have set.
		res.Explored = res.FirstViolation
		res.Exhausted = false
		res.Crashed = false
		res.CrashErr = nil
	case res.Interrupted:
		res.Explored = p.nextProc - 1 // results recorded in order
	default:
		res.Explored = p.assigned
	}
	if r, ok := p.explorer.(*interleave.RandExplorer); ok {
		res.RandShuffles = r.Shuffles()
	}
}
