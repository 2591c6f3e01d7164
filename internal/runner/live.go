package runner

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/telemetry"
)

// This file is the gated schedule — live replay (paper §4.3) — and its
// session types. Live exploration shares the checkpointed path's driver
// (pool.go), so every ordering guarantee documented there carries over,
// and its Executor, so an event means the same thing on both.
//
// Isolation between concurrent sessions comes from the session, not the
// engine: a LiveGates implementation must hand every session a fresh
// fenced namespace (proxy.DistPool mints sess/<worker>/<epoch> lock keys,
// so a stale WaitTurn or Advance from a cancelled attempt can never order
// the next attempt's events), and the default in-process factory simply
// builds a new LocalGate per session.

// LiveSession is one execution attempt's gate namespace: Gate mints the
// TurnGate for a replica, and Close releases whatever the session still
// holds (its turn counter). Sessions are single-use, and a session's gates
// start at turn 0: the replica that owns turn 0 takes it without waiting
// (proxy.TurnGate).
type LiveSession interface {
	Gate(rep event.ReplicaID) (proxy.TurnGate, error)
	Close() error
}

// SessionFactory mints the gate sessions for one live worker. Each call
// returns the next session, fenced from all of the worker's previous
// ones: nothing a cancelled earlier session still does may be visible to
// it.
type SessionFactory func() (LiveSession, error)

// LiveGates builds the per-worker session factories for the live pool
// (Config.LiveGates). Nil defaults to in-process LocalGate sessions.
type LiveGates func(worker int) (SessionFactory, error)

// gateSession adapts a bare per-replica gate constructor to a LiveSession
// that holds nothing of its own. The default in-process session is one:
// a LocalGate shared by all replicas, isolation by construction (nothing
// outlives the value).
type gateSession func(rep event.ReplicaID) proxy.TurnGate

func (s gateSession) Gate(rep event.ReplicaID) (proxy.TurnGate, error) { return s(rep), nil }
func (s gateSession) Close() error                                     { return nil }

func localSessions(int) (SessionFactory, error) {
	return func() (LiveSession, error) {
		gate := proxy.NewLocalGate()
		return gateSession(func(event.ReplicaID) proxy.TurnGate { return gate }), nil
	}, nil
}

// ExecuteLive replays one interleaving the way a deployed ER-π session
// does (paper §4.3): one goroutine per replica invokes that replica's
// proxied RDL functions in the interleaving's order, and a TurnGate — the
// in-process LocalGate or a lock-server Sequencer — blocks each
// call until its scheduled turn. The outcome is the sequential
// ExecuteOnce's by construction (both run one Executor's event step); the
// live path exists to exercise the real concurrency and distributed
// locking machinery.
//
// newGate builds one gate per replica; with proxy.NewLocalGate a single
// shared gate works, with lockserver.NewSequencer each replica passes its
// own client.
func ExecuteLive(s Scenario, il interleave.Interleaving, newGate func(rep event.ReplicaID) proxy.TurnGate) (*Outcome, error) {
	return ExecuteLiveContext(context.Background(), s, il, newGate, nil, nil)
}

// ExecuteLiveContext is ExecuteLive with context cancellation, optional
// fault injection, and optional telemetry. Cancelling ctx unblocks every
// replica goroutine waiting on its turn gate (including
// Sequencer.WaitTurn over a lock server), so a wedged replay returns
// promptly instead of hanging. A non-nil injector is consulted before
// every scheduled call. A non-nil registry records the replay as one
// execute span plus the live.events and live.handoffs counters: scheduled
// calls applied, and turns taken to apply them.
func ExecuteLiveContext(ctx context.Context, s Scenario, il interleave.Interleaving, newGate func(rep event.ReplicaID) proxy.TurnGate, inj *fault.Injector, reg *telemetry.Registry) (*Outcome, error) {
	if s.Log == nil || len(il) != s.Log.Len() {
		return nil, fmt.Errorf("runner: live replay needs a complete interleaving")
	}
	seen := make([]bool, len(il))
	for _, id := range il {
		if int(id) < 0 || int(id) >= len(seen) || seen[id] {
			return nil, fmt.Errorf("runner: live replay needs a permutation of the log (event %d)", id)
		}
		seen[id] = true
	}
	tel := newRunTelemetry(reg)
	defer tel.span(telemetry.StageExecute, 1, telemetry.CoordinatorWorker).End()
	cfg := Config{LiveGates: func(int) (SessionFactory, error) {
		return func() (LiveSession, error) { return gateSession(newGate), nil }, nil
	}}
	x, err := newExecutor(s, cfg, telemetry.CoordinatorWorker, tel, nil, true, defaultPrefixSnapshotEvery)
	if err != nil {
		return nil, err
	}
	x.inj = inj
	return x.attempt(ctx, workItem{index: 1, il: il, pivot: -1})
}

// liveState is what the gated schedule keeps from attempt to attempt: the
// replicas and each event's replica, and an attempt's scratch: its gates,
// and the channel its replica goroutines report on, which every attempt
// drains.
type liveState struct {
	replicas  []event.ReplicaID
	replicaOf []int // by event ID: index into replicas
	gates     []proxy.TurnGate
	results   chan error
}

func newLiveState(log *event.Log) *liveState {
	l := &liveState{replicas: log.Replicas(), replicaOf: make([]int, log.Len())}
	l.results = make(chan error, len(l.replicas))
	for id := range l.replicaOf {
		l.replicaOf[id] = slices.Index(l.replicas, log.Event(event.ID(id)).Replica)
	}
	return l
}

// nextOwned is the first position from pos on that replica r owns in il,
// or -1.
func (l *liveState) nextOwned(il interleave.Interleaving, r, pos int) int {
	for ; pos < len(il); pos++ {
		if l.replicaOf[il[pos]] == r {
			return pos
		}
	}
	return -1
}

// replayGated is the gated schedule: the step at every position, called by
// its replica's goroutine when the gates a fresh session mints grant its
// turn. The unit the gates order is a run — a maximal stretch of
// consecutive positions owned by one replica (the paper's Event Grouping,
// Algorithm 1, applied to the lock protocol): a replica waits for its
// first run's turn, executes each run's steps back to back and hands the
// schedule on by the run's length, and that hand-off also waits for its
// own next run, so the gates see one wait per replica but the one that
// owns turn 0, one hand-off per run but the last, and nothing in between.
// A fresh session per attempt, fenced as the file comment says, is what
// makes retrying safe at all.
//
// Whatever path exits — including a gate factory failure partway through
// setup, or a mid-run replica error — every closable gate
// is closed and the session is closed, so a failed attempt can neither
// leak its replica goroutines nor leave distributed state behind.
func (x *Executor) replayGated(ctx context.Context, il interleave.Interleaving, index int) error {
	sess, err := x.sessions()
	if err != nil {
		return fmt.Errorf("live session: %w", err)
	}
	x.tel.liveSessions.Add(1)
	l := x.live
	gates := l.gates[:0]
	defer func() {
		for _, g := range gates {
			if c, ok := g.(interface{ Close() error }); ok {
				_ = c.Close()
			}
		}
		clear(gates)
		l.gates = gates[:0]
		_ = sess.Close()
		x.tel.liveSessions.Add(-1)
	}()
	setupSpan := x.tel.span(telemetry.StageLiveSetup, index, x.worker)
	for _, rep := range l.replicas {
		gate, err := sess.Gate(rep)
		if err != nil {
			setupSpan.End()
			return fmt.Errorf("runner: live gate %s: %w", rep, err)
		}
		gates = append(gates, gate)
	}
	setupSpan.End()

	// Each replica's proxied functions are invoked in the interleaving's
	// order for that replica (the replay driver drives the proxies; the
	// schedule may reorder a replica's own recorded events).
	var events, handoffs int // steps applied and runs granted; the step's mutex guards them
	// A failing replica cancels the shared context so the others' turn
	// waits unblock instead of hanging on a turn that will never come;
	// cancellation of the caller's ctx propagates the same way. Its failed
	// run skipped the hand-off, so the schedule stays where it was.
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Each replica goroutine sends exactly one result, nil or its error.
	results := l.results
	for r, rep := range l.replicas {
		go func(r int, rep event.ReplicaID, gate proxy.TurnGate) {
			// The gate already admits exactly one run at a time, in
			// schedule order, so the injector sees strictly increasing
			// positions just like the inline schedule. The mutex stays
			// because a lock-server gate orders goroutines over a socket,
			// which the memory model does not see: it is what makes one
			// step's writes to the cluster and the attempt's scratch visible
			// to the next replica's step.
			var first int
			step := func(k int) error {
				x.mu.Lock()
				defer x.mu.Unlock()
				events++
				if k == 0 {
					handoffs++
				}
				return x.apply(il, first+k)
			}
			// il[first:end] is this replica's run on turns first..end-1,
			// and next its next one's first position, -1 after its last.
			// The hand-off that ends a run waits for next, so every run but
			// the replica's first starts with the schedule held.
			held := false
			for first = l.nextOwned(il, r, 0); first >= 0; held = true {
				end := first + 1
				for end < len(il) && l.replicaOf[il[end]] == r {
					end++
				}
				next := l.nextOwned(il, r, end)
				if err := proxy.RunTurns(attemptCtx, gate, first, end-first, len(il), held, next, step); err != nil {
					cancel()
					results <- fmt.Errorf("replica %s: %w", rep, err)
					return
				}
				first = next
			}
			results <- nil
		}(r, rep, gates[r])
	}
	// Every replica goroutine is done with the cluster once it has sent its
	// result, which is also what lets the next attempt reset the cluster it
	// shares with them. While any is still running, a dead ctx cuts the
	// parked turn waits short (a lock-server wait would otherwise hold its
	// replica until the wait's server-side chunk ends).
	var errs []error
	done := attemptCtx.Done()
	for pending := len(l.replicas); pending > 0; {
		select {
		case err := <-results:
			pending--
			if err != nil {
				errs = append(errs, err)
			}
		case <-done:
			for _, g := range gates {
				if i, ok := g.(interface{ Interrupt() }); ok {
					i.Interrupt()
				}
			}
			done = nil
		}
	}
	x.tel.liveEvents.Add(int64(events))
	x.tel.liveHandoffs.Add(int64(handoffs))
	// Drain every replica's error, not just the first: a multi-replica
	// failure (e.g. one replica crashing and the others timing out on their
	// turns) is reported in full. Each message is deterministic for a given
	// interleaving, but arrival order races across goroutines — sort so the
	// joined error (and the quarantine records built from it) is identical
	// on every run and at every session count.
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}
