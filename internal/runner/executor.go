package runner

import (
	"context"
	"errors"
	"fmt"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// executor applies one interleaving's events to the cluster.
//
// Event semantics during replay:
//   - Update / Observe: apply the RDL op locally; the returned value is
//     recorded as an observation.
//   - SyncSend: capture the sender's sync payload at this instant; the
//     payload travels with the event ID.
//   - SyncExec: apply the payload captured by the paired SyncSend — or,
//     for a standalone sync event (recorded without an explicit send),
//     capture the sender's payload at execution time, modelling a
//     synchronization whose content depends on when it runs.
//
// When a fault injector is attached, it is consulted before every event:
// crash actions roll the target replica back to its durable checkpoint,
// events at (or syncs from) a crashed replica fail with
// fault.ErrReplicaDown, syncs across a partitioned link are dropped and
// recorded in Outcome.DroppedSyncs, and sync payloads may be truncated in
// flight.
type executor struct {
	log     *event.Log
	cluster *replica.Cluster
	// finalize, when non-nil, is Scenario.Finalize: attempt runs it after
	// the last event and recomputes the outcome's fingerprints.
	finalize func(*replica.Cluster) error
	// inj, when non-nil, injects scheduled faults into execution.
	inj *fault.Injector
	// sendFor maps each SyncExec ID to its paired SyncSend ID.
	sendFor map[event.ID]event.ID
	built   bool
	// tel (nil when telemetry is off) records stage spans; worker is the
	// worker id this executor belongs to.
	tel    *runTelemetry
	worker int
	// cache, when non-nil, is this executor's private prefix-snapshot trie
	// (DESIGN.md §4.9): execute restores the deepest cached prefix of each
	// interleaving and replays only the suffix. Never shared across
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
	// (DESIGN.md §4.12): at snapshot depths the executor hashes the
	// execution context and abandons the interleaving with ErrSubsumed
	// when the frontier was already visited via a lexicographically
	// smaller prefix. Shared across every worker of the run.
	sub *subsumeTable
	// subEvery is the subsumption check stride in events when no prefix
	// cache supplies snapshot depths.
	subEvery int
	// contrib memoizes each event ID's additive multiset contribution;
	// rolling is the running digest of the executed prefix, updated O(1)
	// per event in place of the per-depth sort-and-rehash. rolling always
	// equals multisetHash(il[:pos]) at the top of the position loop — the
	// invariant the canon property suite pins.
	contrib map[event.ID]msetDigest
	rolling msetDigest
	// step, when non-nil, observes the cluster after every delivered
	// position (forensic re-execution only; nil on every engine hot path).
	step func(pos int) error
}

func (x *executor) buildPairs() {
	x.sendFor = make(map[event.ID]event.ID)
	for _, pair := range x.log.SyncPairs() {
		x.sendFor[pair[1]] = pair[0]
	}
	x.contrib = make(map[event.ID]msetDigest, x.log.Len())
	for _, id := range x.log.IDs() {
		x.contrib[id] = msetContribution(id)
	}
	x.built = true
}

func (x *executor) execute(ctx context.Context, il interleave.Interleaving, index int) (*Outcome, error) {
	if !x.built {
		x.buildPairs()
	}
	armed := false
	if x.inj != nil {
		injSpan := x.tel.span(telemetry.StageFaultInject, index, x.worker)
		x.inj.Begin(index)
		injSpan.End()
		armed = x.inj.AnyArmed()
		defer x.inj.Finish()
	}
	outcome := &Outcome{
		Index:        index,
		Interleaving: il,
		Observations: make(map[event.ID]string),
		FaultArmed:   armed,
	}
	pending := make(map[event.ID][]byte)
	// Prepare the cluster: restore the deepest cached prefix and replay
	// only the suffix, or reset to the genesis checkpoint and replay from
	// event 0. Fault-carrying interleavings always take the clean genesis
	// path — a crash or truncation makes cached prefix states wrong — and
	// neither read nor populate the cache.
	start, divergence := 0, 0
	x.rolling = msetDigest{}
	useCache := x.cache != nil && !armed
	// Fault-armed interleavings bypass subsumption both ways, like the
	// cache: a crash or truncation makes the hashed context wrong, and a
	// fault-free witness would not reproduce the faulted outcome.
	useSub := x.sub != nil && !armed
	if useCache {
		divergence = commonPrefixLen(x.prevIL, il)
		span := x.tel.span(telemetry.StageRestorePrefix, index, x.worker)
		var err error
		if snap, depth := x.cache.lookup(il); snap != nil {
			err = x.restorePrefix(snap, pending, outcome)
			start = depth
			x.rolling = snap.mset
			x.tel.onPrefixHit(depth)
		} else {
			err = x.cluster.Reset()
			x.tel.onPrefixMiss()
		}
		span.End()
		if err != nil {
			return nil, err
		}
	} else {
		span := x.tel.span(telemetry.StageCheckpointReset, index, x.worker)
		err := x.cluster.Reset()
		span.End()
		if err != nil {
			return nil, err
		}
	}
	for pos := start; pos < len(il); pos++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if x.step != nil && pos > start {
			// Observe the state the previous position left behind (the
			// loop's continue paths — failed ops, dropped syncs — land here
			// too, so every position gets exactly one observation).
			if err := x.step(pos - 1); err != nil {
				return nil, err
			}
		}
		if pos > start {
			// Fold the event the previous iteration delivered (or skipped
			// via a continue path — its ID is part of the prefix either
			// way) into the rolling multiset digest.
			x.rolling.add(x.contrib[il[pos-1]])
			wantCache := useCache && x.cache.wantSnapshot(pos, divergence, x.pivot)
			wantSub := useSub && (wantCache || (!useCache && pos%x.subEvery == 0))
			if wantCache || wantSub {
				skip, err := x.contextPoint(il, pos, pending, outcome, wantCache, wantSub)
				if err != nil {
					return nil, err
				}
				if skip {
					// Frontier already visited via a lexicographically
					// smaller prefix: the rest of this interleaving can only
					// reproduce an outcome an executed interleaving already
					// has (DESIGN.md §4.12). Account the events actually
					// replayed and abandon.
					x.tel.onEvents(pos-start, start)
					x.tel.onSubsumed()
					if useCache {
						x.prevIL = il
					}
					return nil, ErrSubsumed
				}
			}
		}
		id := il[pos]
		ev := x.log.Event(id)
		if x.inj != nil {
			for _, a := range x.inj.At(pos) {
				if a.Kind == fault.ActionCrash {
					if err := x.cluster.ResetNode(a.Replica); err != nil {
						return nil, fmt.Errorf("fault: crash-restore %s: %w", a.Replica, err)
					}
				}
			}
			if x.inj.ReplicaDown(ev.Replica) {
				return nil, fmt.Errorf("event %s: %w", ev, fault.ErrReplicaDown)
			}
		}
		node, err := x.cluster.Node(ev.Replica)
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case event.Update, event.Observe:
			result, err := node.State.Apply(replica.Op{Name: ev.Op, Args: ev.Args})
			if err != nil {
				if errors.Is(err, replica.ErrFailedOp) {
					outcome.FailedOps = append(outcome.FailedOps, id)
					continue
				}
				return nil, fmt.Errorf("event %s: %w", ev, err)
			}
			if result != "" {
				outcome.Observations[id] = result
			}
		case event.SyncSend:
			payload, err := node.State.SyncPayload()
			if err != nil {
				return nil, fmt.Errorf("event %s: %w", ev, err)
			}
			if x.inj != nil {
				payload = x.inj.Payload(pos, payload)
			}
			pending[id] = payload
		case event.SyncExec:
			if x.inj != nil {
				if x.inj.ReplicaDown(ev.From) {
					return nil, fmt.Errorf("event %s: sender: %w", ev, fault.ErrReplicaDown)
				}
				if x.inj.Partitioned(ev.From, ev.Replica) {
					outcome.DroppedSyncs = append(outcome.DroppedSyncs, id)
					continue
				}
			}
			payload, ok := x.payloadFor(id, pending)
			if !ok {
				// Standalone sync: capture the sender's state now.
				sender, err := x.cluster.Node(ev.From)
				if err != nil {
					return nil, err
				}
				payload, err = sender.State.SyncPayload()
				if err != nil {
					return nil, fmt.Errorf("event %s: %w", ev, err)
				}
			}
			if x.inj != nil {
				payload = x.inj.Payload(pos, payload)
			}
			if err := node.State.ApplySync(payload); err != nil {
				if errors.Is(err, replica.ErrFailedOp) {
					outcome.FailedOps = append(outcome.FailedOps, id)
					continue
				}
				return nil, fmt.Errorf("event %s: %w", ev, err)
			}
		default:
			return nil, fmt.Errorf("event %s: unsupported kind", ev)
		}
	}
	if x.step != nil && len(il) > start {
		if err := x.step(len(il) - 1); err != nil {
			return nil, err
		}
	}
	x.tel.onEvents(len(il)-start, start)
	outcome.Fingerprints = x.cluster.Fingerprints()
	outcome.Converged = x.cluster.Converged()
	if useCache {
		x.prevIL = il
	}
	return outcome, nil
}

// restorePrefix rewinds the execution context to a cached prefix: replica
// states, captured sync payloads, and the outcome fields accumulated by
// the prefix's events. Payload slices are shared with the cache — they
// are immutable once captured.
func (x *executor) restorePrefix(snap *prefixSnapshot, pending map[event.ID][]byte, outcome *Outcome) error {
	if err := x.cluster.RestoreSnapshot(snap.states); err != nil {
		return err
	}
	for id, p := range snap.pending {
		pending[id] = p
	}
	for id, v := range snap.obs {
		outcome.Observations[id] = v
	}
	outcome.FailedOps = append(outcome.FailedOps, snap.failed...)
	return nil
}

// contextPoint handles one snapshot depth: capture the execution context
// after il[:depth] into the cache (reusing an existing capture of the
// same literal prefix), and/or run the subsumption check against the
// frontier it represents. skip=true means the interleaving is subsumed.
func (x *executor) contextPoint(il interleave.Interleaving, depth int, pending map[event.ID][]byte, outcome *Outcome, wantCache, wantSub bool) (skip bool, err error) {
	var snap *prefixSnapshot
	if wantCache {
		snap = x.cache.cached(il, depth)
	}
	if snap == nil {
		states, err := x.cluster.CanonicalSnapshot()
		if err != nil {
			return false, err
		}
		x.tel.onSnapshotWork(states.Dirty, states.Reused)
		snap = newPrefixSnapshot(states, pending, outcome)
		snap.mset = x.rolling
		if x.sub != nil {
			// Hash at capture time (even when this depth only feeds the
			// cache): any later re-walk of the same literal prefix reuses
			// the stored hash instead of re-serializing the cluster.
			snap.ctxHash = contextHash(states, pending, outcome.Observations, outcome.FailedOps)
		}
		if wantCache {
			delta, stateDelta, evicted := x.cache.insert(il, depth, snap)
			x.tel.onSnapshot(delta, evicted)
			x.tel.onPrefixDeltaBytes(stateDelta)
		}
	}
	if !wantSub {
		return false, nil
	}
	// x.rolling is multisetHash(il[:depth]) by the loop invariant — the
	// O(1)-maintained replacement for the per-depth sort-and-rehash.
	skip, delta := x.sub.visit(snap.ctxHash, x.rolling, il[:depth])
	x.tel.onSubsumeBytes(delta)
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

func (x *executor) payloadFor(execID event.ID, pending map[event.ID][]byte) ([]byte, bool) {
	sendID, ok := x.sendFor[execID]
	if !ok {
		return nil, false
	}
	payload, ok := pending[sendID]
	return payload, ok
}
