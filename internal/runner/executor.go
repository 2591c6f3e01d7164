package runner

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
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

	// Retry policy around each attempt (execute).
	jitter     *rand.Rand
	timeout    time.Duration
	maxRetries int
	backoff    time.Duration

	// outcome and pending are one attempt's scratch: the outcome under
	// construction and the sync payloads captured so far, keyed by their
	// SyncSend. begin allocates a fresh outcome (callers keep it) and
	// empties pending (prefix snapshots copy it); the step fills both.
	outcome *Outcome
	pending map[event.ID][]byte

	// cache, when non-nil, is this executor's private prefix-snapshot trie
	// (DESIGN.md §4.9): begin restores the deepest cached prefix of each
	// interleaving and replay runs only the suffix. Never shared across
	// executors. gen is the re-prune generation it was last filled under.
	cache *prefixCache
	gen   uint64
	// prevIL is the last interleaving this executor ran with the cache
	// engaged; its common prefix with the next interleaving selects the
	// divergence-point snapshot depth.
	prevIL interleave.Interleaving
	// pivot is the explorer-announced depth where the next interleaving
	// will diverge from the current one (-1 when unknown); the cache
	// snapshots there so the next lookup hits its maximal shared prefix.
	pivot int
	// sub, when non-nil, is the run's shared state-subsumption table
	// (DESIGN.md §4.12): at snapshot depths replay hashes the execution
	// context and abandons the interleaving with ErrSubsumed when the
	// frontier was already visited via a lexicographically smaller prefix.
	// Shared across every worker of the run.
	sub *subsumeTable
	// subEvery is the subsumption check stride in events when no prefix
	// cache supplies snapshot depths.
	subEvery int
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
// disables; RetryBackoff defaults to 1ms — so a standalone executor
// retries exactly like the engines.
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
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	return nil
}

// NewExecutor builds a standalone interleaving executor for the scenario —
// the exact stack an in-process Workers=N run gives each worker, packaged
// so out-of-process callers (the distributed coordinator's workers
// foremost) execute with byte-identical semantics. Honored Config fields:
// Seed, Faults, MaxRetries, RetryBackoff, InterleavingTimeout,
// PrefixCacheBytes, SubsumptionTable (with Mode
// gating it, lexicographic modes only), Telemetry. With SubsumptionTable
// > 0 the executor keeps a private visited-frontier table across Execute
// calls and returns ErrSubsumed for skipped interleavings — a distributed
// worker's per-process equivalent of a run's shared table.
func NewExecutor(s Scenario, cfg Config) (*Executor, error) {
	if err := validate(s, &cfg); err != nil {
		return nil, err
	}
	return newExecutor(s, cfg, 0, newRunTelemetry(cfg.Telemetry), newSubsumption(cfg), false, defaultPrefixSnapshotEvery)
}

// newExecutor builds worker w's private execution environment, the same
// way for both schedules: a fresh cluster checkpointed at genesis, its
// fault injector clone (instrumented when telemetry is on), the per-event
// step table, its seeded retry-jitter generator, and sub, the
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
		pending:  make(map[event.ID][]byte),
		tel:      tel,
		worker:   w,
		// Per-worker jitter generator: retry timing varies across workers,
		// but which interleavings run and what they compute never depends
		// on it.
		jitter:     rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d ^ int64(w+1)<<32)),
		timeout:    cfg.InterleavingTimeout,
		maxRetries: cfg.MaxRetries,
		backoff:    cfg.RetryBackoff,
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

// Execute replays one interleaving at the given global exploration index
// (the index keys deterministic fault arming, so distributed workers must
// pass the coordinator-assigned index, not a local counter). It returns
// the outcome, the number of attempts made, and the final error when every
// attempt failed — the triple Ledger.Record takes. With Telemetry
// attached, each call counts toward runner.explored and the progress
// snapshot, like the driver's per-index accounting — this is what a
// distributed worker's federation reports are built from.
func (x *Executor) Execute(ctx context.Context, il interleave.Interleaving, index int) (*Outcome, int, error) {
	x.tel.explored.Inc()
	return x.execute(ctx, workItem{index: index, il: il, pivot: -1})
}

// run executes one item for the pool: the retry loop under an execute
// span, with the worker's progress slot published around it.
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
		select {
		case <-ctx.Done():
			return nil, attempts, ctx.Err()
		case <-time.After(retryDelay(x.backoff, attempts, x.jitter)):
		}
	}
}

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
	x.outcome.Fingerprints = x.cluster.Fingerprints()
	x.outcome.Converged = x.cluster.Converged()
	return x.outcome, nil
}

// begin starts an attempt on the freshly armed injector: allocate the
// outcome and payload scratch, then prepare the cluster — restore the
// deepest cached prefix so replay runs only the suffix from the returned
// start position, or reset to the genesis checkpoint and replay from event
// 0. Fault-carrying interleavings always take the clean genesis path — a
// crash or truncation makes cached prefix states wrong — and neither read
// nor populate the cache.
func (x *Executor) begin(item workItem) (start int, err error) {
	x.outcome = &Outcome{
		Index:        item.index,
		Interleaving: item.il,
		Observations: make(map[event.ID]string),
		FaultArmed:   x.inj.AnyArmed(),
	}
	clear(x.pending)
	x.rolling = msetDigest{}
	x.pivot = item.pivot
	if x.cache != nil && item.gen != x.gen {
		// Re-pruned since this executor last ran (see workItem.gen).
		x.gen = item.gen
		freed, stateFreed := x.cache.invalidate()
		x.tel.onSnapshot(-freed, -stateFreed, 0)
		x.prevIL = nil
	}
	if x.cache == nil || x.outcome.FaultArmed {
		span := x.tel.span(telemetry.StageCheckpointReset, item.index, x.worker)
		err = x.cluster.Reset()
		span.End()
		return 0, err
	}
	span := x.tel.span(telemetry.StageRestorePrefix, item.index, x.worker)
	if snap, depth := x.cache.lookup(item.il); snap != nil {
		err = x.restorePrefix(snap)
		start = depth
		x.rolling = snap.mset
		x.tel.onPrefixHit(depth)
	} else {
		err = x.cluster.Reset()
		x.tel.prefixMisses.Inc()
	}
	span.End()
	return start, err
}

// replay is the inline schedule: the step at every position from start,
// in order, on the caller's goroutine.
func (x *Executor) replay(ctx context.Context, il interleave.Interleaving, start int) error {
	// Fault-armed interleavings bypass subsumption both ways, like the
	// cache: a crash or truncation makes the hashed context wrong, and a
	// fault-free witness would not reproduce the faulted outcome.
	useCache := x.cache != nil && !x.outcome.FaultArmed
	useSub := x.sub != nil && !x.outcome.FaultArmed
	divergence := 0
	if useCache {
		divergence = commonPrefixLen(x.prevIL, il)
	}
	for pos := start; pos < len(il); pos++ {
		if err := ctx.Err(); err != nil {
			return err
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
			wantCache := useCache && x.cache.wantSnapshot(pos, divergence, x.pivot)
			wantSub := useSub && (wantCache || (!useCache && pos%x.subEvery == 0))
			if wantCache || wantSub {
				skip, err := x.contextPoint(il, pos, wantCache, wantSub)
				if err != nil {
					return err
				}
				if skip {
					// Frontier already visited via a lexicographically
					// smaller prefix: the rest of this interleaving can only
					// reproduce an outcome an executed interleaving already
					// has (DESIGN.md §4.12). Account the events actually
					// replayed and abandon.
					x.tel.onEvents(pos-start, start)
					x.tel.subsumed.Inc()
					if useCache {
						x.prevIL = il
					}
					return ErrSubsumed
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
	x.tel.onEvents(len(il)-start, start)
	if useCache {
		x.prevIL = il
	}
	return nil
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
// flight. Failed ops and dropped syncs append in schedule order. Callers
// present strictly increasing positions, one at a time.
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
				x.outcome.FailedOps = append(x.outcome.FailedOps, id)
				return nil
			}
			return fmt.Errorf("event %s: %w", ev, err)
		}
		if result != "" {
			x.outcome.Observations[id] = result
		}
	case event.SyncSend:
		payload, err := x.cluster.SyncPayload(node)
		if err != nil {
			return fmt.Errorf("event %s: %w", ev, err)
		}
		if x.inj != nil {
			payload = x.inj.Payload(pos, payload)
		}
		x.pending[id] = payload
	case event.SyncExec:
		if x.inj != nil {
			if x.inj.ReplicaDown(ev.From) {
				return fmt.Errorf("event %s: sender: %w", ev, fault.ErrReplicaDown)
			}
			if x.inj.Partitioned(ev.From, ev.Replica) {
				x.outcome.DroppedSyncs = append(x.outcome.DroppedSyncs, id)
				return nil
			}
		}
		// Map presence, not a nil test: a paired send that captured an
		// empty payload still delivers that payload.
		var payload []byte
		captured := false
		if st.send >= 0 {
			payload, captured = x.pending[st.send]
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
				x.outcome.FailedOps = append(x.outcome.FailedOps, id)
				return nil
			}
			return fmt.Errorf("event %s: %w", ev, err)
		}
	default:
		return fmt.Errorf("event %s: unsupported kind", ev)
	}
	return nil
}

// restorePrefix rewinds the execution context to a cached prefix: replica
// states, captured sync payloads, and the outcome fields accumulated by
// the prefix's events. Payload slices are shared with the cache — they
// are immutable once captured.
func (x *Executor) restorePrefix(snap *prefixSnapshot) error {
	if err := x.cluster.RestoreSnapshot(snap.states); err != nil {
		return err
	}
	maps.Copy(x.pending, snap.pending)
	maps.Copy(x.outcome.Observations, snap.obs)
	x.outcome.FailedOps = append(x.outcome.FailedOps, snap.failed...)
	return nil
}

// contextPoint handles one snapshot depth: capture the execution context
// after il[:depth] into the cache (reusing an existing capture of the
// same literal prefix), and/or run the subsumption check against the
// frontier it represents. skip=true means the interleaving is subsumed.
func (x *Executor) contextPoint(il interleave.Interleaving, depth int, wantCache, wantSub bool) (skip bool, err error) {
	var snap *prefixSnapshot
	if wantCache {
		snap = x.cache.cached(il, depth)
	}
	if snap == nil {
		states, err := x.cluster.CanonicalSnapshot()
		if err != nil {
			return false, err
		}
		x.tel.dirtyReplicas.Add(int64(states.Dirty))
		x.tel.bytesReused.Add(states.Reused)
		snap = newPrefixSnapshot(states, x.pending, x.outcome)
		snap.mset = x.rolling
		if x.sub != nil {
			// Hash at capture time (even when this depth only feeds the
			// cache): any later re-walk of the same literal prefix reuses
			// the stored hash instead of re-serializing the cluster.
			snap.ctxHash = contextHash(states, x.pending, x.outcome.Observations, x.outcome.FailedOps)
		}
		if wantCache {
			delta, stateDelta, evicted := x.cache.insert(il, depth, snap)
			x.tel.onSnapshot(delta, stateDelta, evicted)
		}
	}
	if !wantSub {
		return false, nil
	}
	// x.rolling is multisetHash(il[:depth]) by the loop invariant — the
	// O(1)-maintained replacement for the per-depth sort-and-rehash.
	skip, delta := x.sub.visit(snap.ctxHash, x.rolling, il[:depth])
	x.tel.subsumeBytes.Add(delta)
	return skip, nil
}

// newPrefixSnapshot packages the execution context after a prefix —
// canonical cluster snapshot plus the executor-side bookkeeping the
// remaining suffix can observe — with its byte-size accounting.
func newPrefixSnapshot(states *replica.ClusterSnapshot, pending map[event.ID][]byte, outcome *Outcome) *prefixSnapshot {
	snap := &prefixSnapshot{
		states:  states,
		pending: make(map[event.ID][]byte, len(pending)),
		obs:     make(map[event.ID]string, len(outcome.Observations)),
		failed:  append([]event.ID(nil), outcome.FailedOps...),
	}
	size := states.Bytes
	for id, p := range pending {
		snap.pending[id] = p
		size += int64(len(p)) + 8
	}
	for id, v := range outcome.Observations {
		snap.obs[id] = v
		size += int64(len(v)) + 8
	}
	size += int64(len(snap.failed)) * 8
	snap.size = size
	return snap
}
