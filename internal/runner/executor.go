package runner

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Executor replays individual interleavings of one scenario — the paper's
// step 5: enforce the event order, checkpoint/reset replica state between
// interleavings. It is the one definition of "execute an interleaving":
// the in-process pool's workers, a distributed worker's leased ranges,
// ExecuteOnce, forensic re-execution and live replay all build one through
// newExecutor and run the same prologue (fault arming, reset or prefix
// restore), the same event step (apply) and the same epilogue (Finalize,
// fingerprints), under the same retry policy.
//
// What differs is only who calls the step, and when — the schedule:
//   - inline (replay): a loop on the caller's goroutine, with the
//     prefix-cache / subsumption context points and the forensic hook;
//   - gated (replayGated, live.go): one goroutine per replica, each
//     event's turn granted by a proxy.TurnGate.
//
// Not safe for concurrent use; build one per goroutine.
type Executor struct {
	log     *event.Log
	cluster *replica.Cluster
	// steps is the log resolved once for execution, indexed by event ID.
	steps []eventStep
	// finalize, when non-nil, is Scenario.Finalize, run after the last
	// event and before the outcome's fingerprints are taken.
	finalize func(*replica.Cluster) error
	// inj, when non-nil, injects scheduled faults into execution.
	inj *fault.Injector
	// tel (nil when telemetry is off) records stage spans; worker is the
	// worker id this executor belongs to.
	tel    *runTelemetry
	worker int
	// ops caches the runner.op.<name> counters (nil when telemetry is off).
	ops map[string]*telemetry.Counter

	// Retry policy around each attempt (execute). Only a retry draws
	// jitter, so jitter stays nil until the first one and is then seeded
	// with jitterSeed: seeding a source is a visible share of the set-up
	// of a short run, which never retries.
	jitter     *rand.Rand
	jitterSeed int64
	timeout    time.Duration
	maxRetries int

	// slots is the per-event scratch along the executor's path, indexed by
	// event ID (DESIGN.md §4.9): what each event of the executed prefix
	// left behind — its captured payload, observation, failure or drop.
	// Each event writes only its own slot, and slots outlive an attempt:
	// after a restore at depth d, the slots of il[:d] are already right,
	// and begin clears only those that last wrote past d. Every slot
	// outside the executed prefix is clear. The attempt's Outcome is built
	// from the slots in the epilogue.
	slots []eventSlot
	// last is the interleaving the last begin started: its slots past the
	// next restore depth are the ones the next begin clears.
	last interleave.Interleaving
	// index and armed are the attempt in progress: its exploration index
	// and whether the fault schedule armed it.
	index int
	armed bool

	// cache, when non-nil, is this executor's private stack of snapshots
	// along the interleaving it last walked (DESIGN.md §4.9): begin
	// restores the deepest one that is a prefix of the next interleaving
	// and replay runs only the suffix. Never shared across executors.
	cache *prefixCache
	// gen is the re-prune generation this executor last ran an item
	// under; enter forgets the cache and dead when it moves.
	gen uint64
	// divergence and pivot are the depths beyond the stride where replay
	// snapshots into the cache: where this interleaving leaves the last
	// one (lookup's common prefix), and where the explorer announces the
	// next one will diverge (-1 when unknown), so the next lookup restores
	// its maximal shared prefix.
	divergence, pivot int
	// sub, when non-nil, is the run's shared state-subsumption table
	// (DESIGN.md §4.12): at snapshot depths and after the last event,
	// replay hashes the execution context and abandons the interleaving
	// with ErrSubsumed when a smaller interleaving already left the same
	// frontier. Shared across every worker of the run.
	sub *subsumeTable
	// subEvery is the subsumption check stride in events when no prefix
	// cache supplies snapshot depths.
	subEvery int
	// completions classifies the prefixes of the attempt in progress by
	// the completions its enumeration keeps after them (nil when it keeps
	// the same after all): see visit.
	completions *prune.Completions
	// dead is the prefix at which replay last abandoned an interleaving at
	// an interior frontier (empty when none): every later item extending
	// it reaches the same visited frontier, so attempt skips it before
	// begin (DESIGN.md §4.12, "The dead prefix").
	dead interleave.Interleaving
	// subSnap is the reusable cluster snapshot of a check the prefix
	// cache does not keep: hashed, then overwritten by the next check.
	subSnap replica.ClusterSnapshot
	// ctxScratch is contextHash's working memory.
	ctxScratch ctxScratch
	// rolling is the running digest of the executed prefix, updated O(1)
	// per event from eventStep.contrib in place of the per-depth
	// sort-and-rehash. rolling always equals multisetHash(il[:pos]) at the
	// top of replay's position loop — the invariant the canon property
	// suite pins.
	rolling msetDigest
	// step, when non-nil, observes the cluster after every delivered
	// position (forensic re-execution only; nil on every engine hot path).
	step func(pos int) error

	// sessions, when non-nil, selects the gated schedule: every attempt
	// runs under a fresh gate session it mints (live.go). mu serializes the
	// step across the replica goroutines; live is what the schedule keeps
	// between attempts.
	sessions SessionFactory
	mu       sync.Mutex
	live     *liveState
}

// eventSlot is one event's scratch along the executor's path.
type eventSlot struct {
	// payload is a SyncSend's captured sync payload (slotCaptured), shared
	// with the cluster's payload cache and immutable once captured.
	payload []byte
	// sum is payload's SHA-256, computed at the first context hash that
	// needs it (slotSummed) and kept while the slot stays on the path.
	sum [sha256.Size]byte
	// obs is an Update's or Observe's result; "" records nothing.
	obs   string
	flags uint8
}

const (
	slotCaptured uint8 = 1 << iota // payload holds a captured payload
	slotSummed                     // sum is payload's SHA-256
	slotFailed                     // the event failed by data-type constraint
	slotDropped                    // the sync was dropped by a partition
)

// eventStep is one event resolved for execution once, when the executor
// is built, so the step reads it by dense event ID instead of copying it
// out of the log and looking its replicas up by name.
type eventStep struct {
	ev event.Event
	// node runs the event; from is a SyncExec's sender. Either is nil when
	// the cluster has no such replica, which apply reports when it runs.
	node, from *replica.Node
	// send is a SyncExec's paired SyncSend, or -1 when it has none.
	send event.ID
	// contrib is the event's additive multiset contribution.
	contrib msetDigest
}

// validate is the one check of what a caller hands the engine, shared by
// RunContext and NewExecutor, and applies Config's documented defaults in
// place: Mode defaults to ModeERPi; MaxRetries 0 means one retry, negative
// disables — so a standalone executor retries exactly like the engines.
func validate(s Scenario, cfg *Config) error {
	if s.Log == nil || s.Log.Len() == 0 {
		return errors.New("runner: scenario has no events")
	}
	if s.NewCluster == nil {
		return errors.New("runner: scenario has no cluster factory")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("runner: %w", err)
		}
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeERPi
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 1
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	return nil
}

// NewExecutor builds a standalone interleaving executor for the scenario —
// the exact stack an in-process Workers=N run gives each worker, packaged
// so out-of-process callers (the distributed coordinator's workers
// foremost) execute with byte-identical semantics. Honored Config fields:
// Seed, Faults, MaxRetries, InterleavingTimeout,
// PrefixCacheBytes, SubsumptionTable (with Mode
// gating it, lexicographic modes only), Telemetry. With SubsumptionTable
// > 0 the executor keeps a private visited-frontier table across Execute
// calls and returns ErrSubsumed for skipped interleavings — a distributed
// worker's per-process equivalent of a run's shared table — and, like a
// pool worker, keeps the prefix it last abandoned at an interior frontier:
// a later Execute extending it returns ErrSubsumed before replay, in
// whatever order the indices arrive.
func NewExecutor(s Scenario, cfg Config) (*Executor, error) {
	if err := validate(s, &cfg); err != nil {
		return nil, err
	}
	sub := newSubsumption(cfg)
	completions, err := newCompletions(s, cfg, s.Pruning, sub)
	if err != nil {
		return nil, err
	}
	x, err := newExecutor(s, cfg, 0, newRunTelemetry(cfg.Telemetry), sub, false, defaultPrefixSnapshotEvery)
	if err != nil {
		return nil, err
	}
	x.completions = completions
	return x, nil
}

// newExecutor builds worker w's private execution environment, the same
// way for both schedules: a fresh cluster checkpointed at genesis, its
// fault injector clone (instrumented when telemetry is on), the per-event
// step table and slots, its retry-jitter seed, and sub, the
// run's shared subsumption table (nil when disabled, and on every live
// run; unlike the cache, all workers consult the same one). An inline
// executor adds the optional prefix cache, which snapshots every `every`
// events (also the subsumption check stride); a live one takes its gate
// sessions from cfg.LiveGates instead: live replay re-issues real calls
// and cannot resume an interleaving mid-flight.
func newExecutor(s Scenario, cfg Config, w int, tel *runTelemetry, sub *subsumeTable, live bool, every int) (*Executor, error) {
	cluster, err := s.NewCluster()
	if err != nil {
		return nil, fmt.Errorf("runner: cluster setup: %w", err)
	}
	if err := cluster.Checkpoint(); err != nil {
		return nil, err
	}
	x := &Executor{
		log:      s.Log,
		cluster:  cluster,
		steps:    newSteps(s.Log, cluster),
		finalize: s.Finalize,
		slots:    make([]eventSlot, s.Log.Len()),
		tel:      tel,
		worker:   w,
		// Per-worker jitter seed: retry timing varies across workers, but
		// which interleavings run and what they compute never depends on it.
		jitterSeed: cfg.Seed ^ 0x5deece66d ^ int64(w+1)<<32,
		timeout:    cfg.InterleavingTimeout,
		maxRetries: cfg.MaxRetries,
		sub:        sub,
	}
	if tel.reg != nil {
		x.ops = make(map[string]*telemetry.Counter)
	}
	if cfg.Faults != nil {
		if x.inj, err = fault.NewInjector(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		tel.instrument(x.inj)
	}
	if live {
		gatesFor := cfg.LiveGates
		if gatesFor == nil {
			gatesFor = localSessions
		}
		if x.sessions, err = gatesFor(w); err != nil {
			return nil, fmt.Errorf("runner: live gates for worker %d: %w", w, err)
		}
		x.live = newLiveState(s.Log)
		return x, nil
	}
	if cfg.PrefixCacheBytes > 0 {
		// Private per-worker cache: no cross-worker sharing, so what a
		// worker computes never depends on what other workers ran.
		x.cache = newPrefixCache(cfg.PrefixCacheBytes, every)
	}
	x.subEvery = every
	return x, nil
}

// newSteps resolves every event of the log against the cluster.
func newSteps(log *event.Log, cluster *replica.Cluster) []eventStep {
	steps := make([]eventStep, log.Len())
	for i, ev := range log.Events() {
		st := &steps[i]
		st.ev, st.send, st.contrib = ev, -1, msetContribution(ev.ID)
		st.node, _ = cluster.Node(ev.Replica)
		if ev.Kind == event.SyncExec {
			st.from, _ = cluster.Node(ev.From)
		}
	}
	for _, pair := range log.SyncPairs() {
		steps[pair[1]].send = pair[0]
	}
	return steps
}

// Execute replays one interleaving at the given global exploration index.
// The index keys deterministic fault arming, and with SubsumptionTable it
// names the interleaving as a witness: the table takes a smaller index
// for a lexicographically smaller interleaving, so the index must be the
// interleaving's position in the explorer's enumeration (distributed
// workers pass the coordinator-assigned index, not a local counter), or
// subsumption is unsound. It returns
// the outcome, the number of attempts made, and the final error when every
// attempt failed — the triple Ledger.Record takes. It runs the pool's
// per-execution body (run): with Telemetry attached, a call is one
// stage.execute_ns observation and counts nothing toward the run counts,
// which Ledger.Record writes.
func (x *Executor) Execute(ctx context.Context, il interleave.Interleaving, index int) (*Outcome, int, error) {
	r := x.run(ctx, workItem{index: index, il: il, pivot: -1, completions: x.completions})
	return r.outcome, r.attempts, r.err
}

// run executes one item for the pool and for Execute: the retry loop
// under an execute span, with the worker's progress slot published around
// it.
func (x *Executor) run(ctx context.Context, item workItem) workResult {
	x.tel.progress.SetWorker(x.worker, item.index)
	span := x.tel.span(telemetry.StageExecute, item.index, x.worker)
	outcome, attempts, err := x.execute(ctx, item)
	span.End()
	x.tel.progress.SetWorker(x.worker, 0)
	return workResult{workItem: item, outcome: outcome, attempts: attempts, err: err}
}

// execute drives attempt through the retry policy: each attempt under the
// per-interleaving timeout (when configured), exponential backoff with
// seeded ±50% jitter between attempts, up to maxRetries retries, aborting
// early when ctx dies. It returns the outcome, the number of attempts
// made, and the final error when every attempt failed.
func (x *Executor) execute(ctx context.Context, item workItem) (*Outcome, int, error) {
	for attempts := 1; ; attempts++ {
		ilCtx, cancel := ctx, context.CancelFunc(nil)
		if x.timeout > 0 {
			ilCtx, cancel = context.WithTimeout(ctx, x.timeout)
		}
		outcome, err := x.attempt(ilCtx, item)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return outcome, attempts, nil
		}
		if ctx.Err() != nil {
			return nil, attempts, ctx.Err()
		}
		// ErrSubsumed is not a failure: re-executing would reach the same
		// visited frontier and skip again.
		if errors.Is(err, ErrSubsumed) || attempts > x.maxRetries {
			return nil, attempts, err
		}
		x.tel.retries.Inc()
		if x.jitter == nil {
			x.jitter = rand.New(rand.NewSource(x.jitterSeed))
		}
		select {
		case <-ctx.Done():
			return nil, attempts, ctx.Err()
		case <-time.After(retryDelay(retryBackoff, attempts, x.jitter)):
		}
	}
}

// retryBackoff is the delay before an interleaving's first retry, doubling
// per attempt with ±50% jitter drawn from the worker's seeded generator.
const retryBackoff = time.Millisecond

// maxRetryBackoff caps the exponential retry backoff. Without it, doubling
// the base per attempt overflows time.Duration after ~63 shifts (sooner
// with large bases), producing a negative delay that panics the jitter
// draw.
const maxRetryBackoff = 30 * time.Second

// retryDelay computes the sleep before retry number `attempt` (1-based):
// exponential backoff from base, clamped to maxRetryBackoff, with seeded
// ±50% jitter.
func retryDelay(base time.Duration, attempt int, jitter *rand.Rand) time.Duration {
	backoff := base
	for i := 1; i < attempt; i++ {
		if backoff >= maxRetryBackoff/2 {
			backoff = maxRetryBackoff
			break
		}
		backoff <<= 1
	}
	if backoff > maxRetryBackoff {
		backoff = maxRetryBackoff
	}
	return backoff/2 + time.Duration(jitter.Int63n(int64(backoff)+1))
}

// attempt performs one execution attempt: prologue, one of the two
// schedules over the step, epilogue.
func (x *Executor) attempt(ctx context.Context, item workItem) (*Outcome, error) {
	if x.inj != nil {
		injSpan := x.tel.span(telemetry.StageFaultInject, item.index, x.worker)
		x.inj.Begin(item.index)
		injSpan.End()
		defer x.inj.Finish()
	}
	x.enter(item.gen)
	if len(x.dead) > 0 && commonPrefixLen(x.dead, item.il) == len(x.dead) {
		// The dead prefix's subtree: no reset or restore, no replay, no
		// hash and no table visit.
		x.tel.deadPrefix.Inc()
		return nil, ErrSubsumed
	}
	start, err := x.begin(item)
	if err != nil {
		return nil, err
	}
	if x.sessions != nil {
		err = x.replayGated(ctx, item.il, item.index)
	} else {
		err = x.replay(ctx, item.il, start)
	}
	if err != nil {
		return nil, err
	}
	if x.finalize != nil {
		if err := x.finalize(x.cluster); err != nil {
			return nil, fmt.Errorf("finalize: %w", err)
		}
	}
	return x.outcomeOf(item), nil
}

// outcomeOf is the epilogue of an attempt that executed all of item: the
// Outcome, built from the slots of item's events in schedule order and
// the cluster's fingerprints.
func (x *Executor) outcomeOf(item workItem) *Outcome {
	var nObs, nFailed, nDropped int
	for _, id := range item.il {
		s := &x.slots[id]
		if s.obs != "" {
			nObs++
		}
		if s.flags&slotFailed != 0 {
			nFailed++
		}
		if s.flags&slotDropped != 0 {
			nDropped++
		}
	}
	o := &Outcome{
		Index:        item.index,
		Interleaving: item.il,
		Fingerprints: x.cluster.Fingerprints(),
		Observations: make(map[event.ID]string, nObs),
		Converged:    x.cluster.Converged(),
		FaultArmed:   x.armed,
	}
	if nFailed > 0 {
		o.FailedOps = make([]event.ID, 0, nFailed)
	}
	if nDropped > 0 {
		o.DroppedSyncs = make([]event.ID, 0, nDropped)
	}
	for _, id := range item.il {
		s := &x.slots[id]
		if s.obs != "" {
			o.Observations[id] = s.obs
		}
		if s.flags&slotFailed != 0 {
			o.FailedOps = append(o.FailedOps, id)
		}
		if s.flags&slotDropped != 0 {
			o.DroppedSyncs = append(o.DroppedSyncs, id)
		}
	}
	return o
}

// begin starts an attempt on the freshly armed injector: prepare the
// cluster — restore the deepest cached prefix so replay runs only the
// suffix from the returned start position, or reset to the genesis
// checkpoint and replay from event 0 — and clear the slots past start.
// Fault-carrying interleavings always take the clean genesis path — a
// crash or truncation makes cached prefix states wrong — and neither read
// nor populate the cache. Their replay also rewrites, under the faults,
// the slots the cached snapshots rely on, so they forget the stack.
func (x *Executor) begin(item workItem) (start int, err error) {
	x.index, x.armed = item.index, x.inj.AnyArmed()
	x.completions = item.completions
	x.rolling = msetDigest{}
	x.pivot = item.pivot
	if x.cache == nil || x.armed {
		if x.cache != nil {
			x.tel.snapshotBytes.Add(-x.cache.invalidate())
		}
		x.clearSlots(item.il, 0)
		span := x.tel.span(telemetry.StageCheckpointReset, item.index, x.worker)
		err = x.cluster.Reset()
		span.End()
		return 0, err
	}
	span := x.tel.span(telemetry.StageRestorePrefix, item.index, x.worker)
	top, divergence, freed := x.cache.lookup(item.il)
	x.divergence = divergence
	x.tel.snapshotBytes.Add(-freed)
	if top.snap != nil {
		err = x.cluster.RestoreSnapshot(top.snap.states)
		start = top.depth
		x.rolling = top.snap.mset
		x.tel.onPrefixHit(start)
	} else {
		err = x.cluster.Reset()
		x.tel.prefixMisses.Inc()
	}
	x.clearSlots(item.il, start)
	span.End()
	return start, err
}

// clearSlots clears the slots the last interleaving begun may have written
// past depth start and makes il the last one. A restore at start is a
// prefix both interleavings share, whose slots stay as they are.
func (x *Executor) clearSlots(il interleave.Interleaving, start int) {
	if start < len(x.last) {
		for _, id := range x.last[start:] {
			x.slots[id] = eventSlot{}
		}
	}
	x.last = il
}

// enter moves the executor to the item's re-prune generation (see
// workItem.gen). When it changed, everything kept for the old enumeration
// is forgotten: the prefix cache holds branches the new sequence never
// walks, and the dead prefix's witness may be pruned out of it.
func (x *Executor) enter(gen uint64) {
	if gen == x.gen {
		return
	}
	x.gen = gen
	x.dead = x.dead[:0]
	if x.cache != nil {
		x.tel.snapshotBytes.Add(-x.cache.invalidate())
	}
}

// replay is the inline schedule: the step at every position from start,
// in order, on the caller's goroutine.
func (x *Executor) replay(ctx context.Context, il interleave.Interleaving, start int) error {
	// Fault-armed interleavings bypass the cache: a crash or truncation
	// makes cached prefix states wrong. A run with faults has no table.
	useCache := x.cache != nil && !x.armed
	useSub := x.sub != nil
	// One Done call per replay; the per-event poll is a channel receive,
	// not cancelCtx.Err's mutex.
	done := ctx.Done()
	for pos := start; pos < len(il); pos++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if pos > start {
			if x.step != nil {
				// Observe the state the previous position left behind
				// (failed ops and dropped syncs land here too, so every
				// position gets exactly one observation).
				if err := x.step(pos - 1); err != nil {
					return err
				}
			}
			// Fold the event the previous iteration delivered (or failed,
			// or dropped — its ID is part of the prefix either way) into
			// the rolling multiset digest.
			x.rolling.add(x.steps[il[pos-1]].contrib)
			wantCache := useCache && x.cache.wantSnapshot(pos, x.divergence, x.pivot)
			wantSub := useSub && (wantCache || (!useCache && pos%x.subEvery == 0))
			if wantCache || wantSub {
				v, err := x.contextPoint(il, pos, wantCache, wantSub)
				if err != nil {
					return err
				}
				if v != runOn {
					// Frontier already visited via a lexicographically
					// smaller prefix: the rest of this interleaving can only
					// reproduce an outcome an executed interleaving already
					// has (DESIGN.md §4.12). When the witness's prefix is
					// kept with every completion this one is, so can every
					// later interleaving that extends il[:pos]: keep it as
					// the dead prefix. Account the events actually replayed
					// and abandon.
					if v == skipSubtree {
						x.dead = append(x.dead[:0], il[:pos]...)
					}
					return x.subsumed(pos-start, start)
				}
			}
		}
		if err := x.apply(il, pos); err != nil {
			return err
		}
	}
	if x.step != nil && len(il) > start {
		if err := x.step(len(il) - 1); err != nil {
			return err
		}
	}
	if useSub {
		// The final frontier: the remaining suffix is empty, so a smaller
		// interleaving that left this exact context is the witness itself
		// and already pays Finalize, fingerprints and assertions for it.
		x.rolling.add(x.steps[il[len(il)-1]].contrib)
		v, err := x.subsume(il, len(il))
		if err != nil {
			return err
		}
		if v != runOn {
			return x.subsumed(len(il)-start, start)
		}
	}
	x.tel.onEvents(len(il)-start, start)
	return nil
}

// subsumed accounts the events an interleaving abandoned at a visited
// frontier did replay, and returns ErrSubsumed.
func (x *Executor) subsumed(executed, skipped int) error {
	x.tel.onEvents(executed, skipped)
	return ErrSubsumed
}

// apply is the event step — what executing il[pos] does, on either
// schedule:
//   - Update / Observe: apply the RDL op locally; the returned value is
//     recorded as an observation.
//   - SyncSend: capture the sender's sync payload at this instant; the
//     payload travels with the event ID.
//   - SyncExec: apply the payload captured by the paired SyncSend — or,
//     for a standalone sync event (recorded without an explicit send, or
//     scheduled ahead of it), capture the sender's payload at execution
//     time, modelling a synchronization whose content depends on when it
//     runs.
//
// When a fault injector is attached, it is consulted first: crash actions
// roll the target replica back to its durable checkpoint, events at (or
// syncs from) a crashed replica fail with fault.ErrReplicaDown, syncs
// across a partitioned link are dropped and recorded in
// Outcome.DroppedSyncs, and the payload executed at a truncation's
// position — captured there or carried from a paired send — is cut in
// flight. What the event leaves behind — payload, observation, failure,
// drop — goes to its own slot. Callers present strictly increasing
// positions, one at a time.
func (x *Executor) apply(il interleave.Interleaving, pos int) error {
	id := il[pos]
	st := &x.steps[id]
	ev := &st.ev
	if x.inj != nil {
		for _, a := range x.inj.At(pos) {
			if a.Kind == fault.ActionCrash {
				if err := x.cluster.ResetNode(a.Replica); err != nil {
					return fmt.Errorf("fault: crash-restore %s: %w", a.Replica, err)
				}
			}
		}
		if x.inj.ReplicaDown(ev.Replica) {
			return fmt.Errorf("event %s: %w", ev, fault.ErrReplicaDown)
		}
	}
	node := st.node
	if node == nil {
		_, err := x.cluster.Node(ev.Replica)
		return err
	}
	switch ev.Kind {
	case event.Update, event.Observe:
		x.tel.onOp(x.ops, ev.Op)
		result, err := node.State.Apply(replica.Op{Name: ev.Op, Args: ev.Args})
		if err != nil {
			if errors.Is(err, replica.ErrFailedOp) {
				x.slots[id].flags |= slotFailed
				return nil
			}
			return fmt.Errorf("event %s: %w", ev, err)
		}
		x.slots[id].obs = result
	case event.SyncSend:
		payload, err := x.cluster.SyncPayload(node)
		if err != nil {
			return fmt.Errorf("event %s: %w", ev, err)
		}
		if x.inj != nil {
			payload = x.inj.Payload(pos, payload)
		}
		x.slots[id].payload = payload
		x.slots[id].flags |= slotCaptured
	case event.SyncExec:
		if x.inj != nil {
			if x.inj.ReplicaDown(ev.From) {
				return fmt.Errorf("event %s: sender: %w", ev, fault.ErrReplicaDown)
			}
			if x.inj.Partitioned(ev.From, ev.Replica) {
				x.slots[id].flags |= slotDropped
				return nil
			}
		}
		// The capture flag, not a nil test: a paired send that captured an
		// empty payload still delivers that payload.
		var payload []byte
		captured := false
		if st.send >= 0 {
			send := &x.slots[st.send]
			payload, captured = send.payload, send.flags&slotCaptured != 0
		}
		if !captured {
			// Standalone sync: capture the sender's state now.
			if st.from == nil {
				_, err := x.cluster.Node(ev.From)
				return err
			}
			var err error
			if payload, err = x.cluster.SyncPayload(st.from); err != nil {
				return fmt.Errorf("event %s: %w", ev, err)
			}
		}
		if x.inj != nil {
			payload = x.inj.Payload(pos, payload)
		}
		x.tel.syncBytes.Add(int64(len(payload)))
		if err := node.State.ApplySync(payload); err != nil {
			if errors.Is(err, replica.ErrFailedOp) {
				x.slots[id].flags |= slotFailed
				return nil
			}
			return fmt.Errorf("event %s: %w", ev, err)
		}
	default:
		return fmt.Errorf("event %s: unsupported kind", ev)
	}
	return nil
}

// contextPoint handles one snapshot depth: push the execution context
// after il[:depth] onto the cache, and/or run the subsumption check
// against the frontier it represents. The depth always lies past the
// restored one, so the cache never already holds it.
func (x *Executor) contextPoint(il interleave.Interleaving, depth int, wantCache, wantSub bool) (verdict, error) {
	if !wantCache {
		return x.subsume(il, depth)
	}
	states, err := x.cluster.CanonicalSnapshot()
	if err != nil {
		return runOn, err
	}
	x.tel.dirtyReplicas.Add(int64(states.Dirty))
	x.tel.bytesReused.Add(states.Reused)
	snap := &prefixSnapshot{states: states, mset: x.rolling, size: states.Bytes + slotBytes(x.slots)}
	if x.cache.insert(depth, snap) {
		x.tel.snapshotBytes.Add(snap.size)
	} else {
		x.tel.prefixEvicted.Inc()
	}
	if !wantSub {
		return runOn, nil
	}
	return x.visit(contextHash(&x.ctxScratch, states, x.slots), il, depth), nil
}

// subsume is the subsumption check at a depth the prefix cache does not
// keep: the context is hashed straight from the live cluster (into the
// reusable subSnap) and the executor's slots, with no prefixSnapshot.
func (x *Executor) subsume(il interleave.Interleaving, depth int) (verdict, error) {
	if err := x.cluster.SnapshotInto(&x.subSnap); err != nil {
		return runOn, err
	}
	x.tel.dirtyReplicas.Add(int64(x.subSnap.Dirty))
	x.tel.bytesReused.Add(x.subSnap.Reused)
	return x.visit(contextHash(&x.ctxScratch, &x.subSnap, x.slots), il, depth), nil
}

// A verdict is what a visited frontier decides for the interleaving at it.
type verdict uint8

const (
	runOn       verdict = iota
	skipLeaf            // its outcome is one an executed interleaving has
	skipSubtree         // and so is every extension of the prefix
)

// visit checks and records the frontier (ctxHash, x.rolling) reached by
// il[:depth] in the shared table. x.rolling is multisetHash(il[:depth])
// by the loop invariant — the O(1)-maintained replacement for the
// per-depth sort-and-rehash. A smaller witness at the frontier stands
// for the rest of il when the pruned space keeps its prefix followed by
// il's suffix, and for every extension of il[:depth] when its prefix's
// completion class covers this one's (prune.Completions).
func (x *Executor) visit(ctxHash [sha256.Size]byte, il interleave.Interleaving, depth int) verdict {
	class := x.completions.Key(il[:depth])
	witness, found, delta := x.sub.visit(ctxHash, x.rolling, class, il[:depth], x.index)
	x.tel.subsumeBytes.Add(delta)
	switch {
	case !found || !x.completions.Keeps(witness, il[:depth], il[depth:]):
		return runOn
	case x.completions.Covers(witness, class):
		return skipSubtree
	}
	return skipLeaf
}
