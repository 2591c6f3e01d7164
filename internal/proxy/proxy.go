// Package proxy provides ER-π's runtime interception layer (paper §4.1):
// RDL calls made by application code pass through an Interceptor that, in
// record mode, extracts them as distributed events and, in replay mode,
// blocks each call until the active interleaving schedules it.
//
// The interceptor plays the role of the paper's language-specific proxies
// (go/ast rewriting, monkey patching, dynamic proxies); the companion
// package astproxy generates the call-site rewrites that route an existing
// code base through it.
package proxy

import (
	"context"
	"fmt"
	"sync"

	"github.com/er-pi/erpi/internal/event"
)

// Mode selects interceptor behaviour.
type Mode int

// Interceptor modes.
const (
	// Passthrough executes calls directly (ER-π disabled).
	Passthrough Mode = iota + 1
	// Record executes calls and extracts them as events.
	Record
	// Replay blocks each call until the active interleaving schedules it.
	Replay
)

// TurnGate orders event execution during replay. Implementations: LocalGate
// (in-process) and the lockserver-backed distributed sequencer adapter.
//
// A gate is a ticket lock: WaitTurn returns to the one caller whose turn
// the schedule has reached, and that caller holds the schedule until it
// advances it. Only the holder may call Advance. A gate handed to a replay
// starts at turn 0, so the owner of turn 0 holds the schedule without a
// WaitTurn; any other caller takes it with WaitTurn once, for its first
// turn, and every later turn it owns is granted by the Advance that hands
// its previous one on. The run that ends the schedule hands nothing on:
// nobody waits for the turn after it. A lock-server gate thus sends one
// request per run but the last, and one per replica but the first.
type TurnGate interface {
	// WaitTurn blocks until the global schedule reaches the given turn.
	WaitTurn(ctx context.Context, turn int) error
	// Advance hands the schedule on by n turns: the holder of turn t ran
	// the n consecutive turns t..t+n-1 it owned as one critical section,
	// and turn t+n is next. With next >= 0, the caller's own next turn, it
	// then blocks until the schedule reaches next, as WaitTurn(ctx, next)
	// would; with next < 0 it returns once the schedule is handed on.
	Advance(ctx context.Context, n, next int) error
}

// Interceptor routes RDL calls for one test session. It is shared by all
// replicas of the process (each replica passes its own ReplicaID).
type Interceptor struct {
	mu       sync.Mutex
	mode     Mode
	recorded []event.Event
	// log is the recorded log being replayed; byReplica indexes its event
	// IDs per replica in record order. Both survive re-arming, so replaying
	// one log under many interleavings indexes it once.
	log       *event.Log
	byReplica map[event.ReplicaID][]event.ID
	// schedule holds, by event ID, the event's turn in the active
	// interleaving.
	schedule []int
	// callSeq counts RDL calls per replica during replay, pairing the i-th
	// call at replica R with the i-th recorded event at R.
	callSeq map[event.ReplicaID]int
	gate    TurnGate
	// granted is the turn the last CallScheduled's hand-off waited for and
	// got, or -1: the CallScheduled whose run starts there holds it
	// already and does not wait again.
	granted int
}

// New returns a passthrough interceptor.
func New() *Interceptor {
	return &Interceptor{mode: Passthrough}
}

// Mode returns the current mode.
func (i *Interceptor) Mode() Mode {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.mode
}

// StartRecording clears prior state and enters record mode.
func (i *Interceptor) StartRecording() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.mode = Record
	i.recorded = nil
}

// StopRecording leaves record mode and returns the extracted events.
func (i *Interceptor) StopRecording() []event.Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.mode = Passthrough
	out := make([]event.Event, len(i.recorded))
	copy(out, i.recorded)
	return out
}

// StartReplay enters replay mode for one interleaving: log holds the
// recorded events, order the scheduled interleaving, gate the turn
// coordinator. The gate must be at turn 0 — a fresh LocalGate or a reset
// one, or a fresh lock-server session — because the owner of turn 0 takes
// it without waiting, and the replay leaves it short of len(order): the
// last run does not advance it. An interceptor may be re-armed any number
// of times; doing so with the same log reuses its indexes.
func (i *Interceptor) StartReplay(log *event.Log, order []event.ID, gate TurnGate) error {
	if len(order) != log.Len() {
		return fmt.Errorf("proxy: interleaving has %d events, log has %d", len(order), log.Len())
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.mode, i.gate = Passthrough, nil // until the schedule is known good
	if i.log != log {
		i.log = log
		i.schedule = make([]int, log.Len())
		i.callSeq = make(map[event.ReplicaID]int)
		i.byReplica = make(map[event.ReplicaID][]event.ID)
		for _, ev := range log.Events() {
			i.byReplica[ev.Replica] = append(i.byReplica[ev.Replica], ev.ID)
		}
	}
	for id := range i.schedule {
		i.schedule[id] = -1
	}
	for turn, id := range order {
		if int(id) < 0 || int(id) >= len(i.schedule) || i.schedule[id] >= 0 {
			return fmt.Errorf("proxy: interleaving is not a permutation of the log (event %d at turn %d)", id, turn)
		}
		i.schedule[id] = turn
	}
	clear(i.callSeq)
	i.mode, i.gate, i.granted = Replay, gate, -1
	return nil
}

// StopReplay returns to passthrough.
func (i *Interceptor) StopReplay() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.mode = Passthrough
	i.gate = nil
}

// Call routes one RDL invocation. ev describes the call (ID is ignored in
// record mode and inferred in replay mode); fn performs the actual library
// call.
func (i *Interceptor) Call(ctx context.Context, ev event.Event, fn func() error) error {
	i.mu.Lock()
	mode := i.mode
	switch mode {
	case Record:
		ev.ID = event.ID(len(i.recorded))
		if ev.Lamport == 0 {
			ev.Lamport = uint64(len(i.recorded) + 1)
		}
		if err := ev.Validate(); err != nil {
			i.mu.Unlock()
			return fmt.Errorf("proxy: record: %w", err)
		}
		i.recorded = append(i.recorded, ev)
		i.mu.Unlock()
		return fn()
	case Replay:
		ids := i.byReplica[ev.Replica]
		seq := i.callSeq[ev.Replica]
		if seq >= len(ids) {
			i.mu.Unlock()
			return fmt.Errorf("proxy: replica %s made more calls (%d) than recorded", ev.Replica, seq+1)
		}
		i.callSeq[ev.Replica] = seq + 1
		turn, gate, end := i.schedule[ids[seq]], i.gate, len(i.schedule)
		i.mu.Unlock()
		return runTurns(ctx, gate, turn, 1, end, false, -1, func(int) error { return fn() })
	default:
		i.mu.Unlock()
		return fn()
	}
}

// CallScheduled executes fn(0), …, fn(len(run)-1) as the given recorded
// events during replay. run must occupy consecutive turns of the
// interleaving — a maximal stretch of one replica's events, say — and is
// executed as one critical section: no gate traffic between its steps, one
// hand-off at the end. This is the replay driver's entry point (paper
// §4.3: "ER-π invokes interleaving events via RDL proxies"): unlike Call,
// which pairs the i-th application call with the i-th recorded event,
// CallScheduled can realize interleavings that reorder a replica's own
// events.
//
// next is the first turn of the caller's next run, or -1 when this run is
// its last. The hand-off waits for next and so grants it: a caller that
// walks its runs in schedule order waits explicitly only for its first
// one — not even for that when it starts at turn 0 — and each later call
// starts at once. The run that ends the schedule makes no hand-off. A
// failed step or a dead context between steps returns before the
// hand-off.
func (i *Interceptor) CallScheduled(ctx context.Context, run []event.ID, next int, fn func(k int) error) error {
	i.mu.Lock()
	if i.mode != Replay {
		i.mu.Unlock()
		return fmt.Errorf("proxy: CallScheduled outside replay mode")
	}
	turn := -1
	for k, id := range run {
		at := -1 // an event outside the log is on no turn
		if int(id) >= 0 && int(id) < len(i.schedule) {
			at = i.schedule[id]
		}
		if k == 0 {
			turn = at
		}
		if at < 0 || at != turn+k {
			i.mu.Unlock()
			return fmt.Errorf("proxy: event %d is not scheduled at turn %d, %d after the run's first", id, turn+k, k)
		}
	}
	if next >= 0 && next < turn+len(run) {
		i.mu.Unlock()
		return fmt.Errorf("proxy: next turn %d is not after the run at turns %d..%d", next, turn, turn+len(run)-1)
	}
	gate, held, end := i.gate, turn >= 0 && turn == i.granted, len(i.schedule)
	i.granted = -1
	i.mu.Unlock()
	if turn < 0 {
		return nil // empty run
	}
	if err := runTurns(ctx, gate, turn, len(run), end, held, next, fn); err != nil {
		return err
	}
	if next >= 0 {
		i.mu.Lock()
		i.granted = next
		i.mu.Unlock()
	}
	return nil
}

// runTurns is the one critical section of replay: take the schedule at
// turn unless the caller holds it already — a hand-off granted it, or it
// is turn 0, where a replay's gate starts — run the n steps the caller
// owns from there, and, unless they end the schedule at end, hand it on by
// n and wait for next (see TurnGate.Advance). A failed step, or a context
// that died between steps, leaves the schedule where it was taken —
// un-advanced, so no later turn can start.
func runTurns(ctx context.Context, gate TurnGate, turn, n, end int, held bool, next int, step func(k int) error) error {
	if !held && turn > 0 {
		if err := gate.WaitTurn(ctx, turn); err != nil {
			return fmt.Errorf("proxy: waiting for turn %d: %w", turn, err)
		}
	}
	for k := 0; k < n; k++ {
		if k > 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("proxy: run from turn %d interrupted at turn %d: %w", turn, turn+k, err)
			}
		}
		if err := step(k); err != nil {
			return err
		}
	}
	if turn+n == end {
		return nil // nobody waits for turn end
	}
	if err := gate.Advance(ctx, n, next); err != nil {
		return fmt.Errorf("proxy: handing turn %d on: %w", turn+n, err)
	}
	return nil
}

// Recorded returns a snapshot of the events recorded so far.
func (i *Interceptor) Recorded() []event.Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]event.Event, len(i.recorded))
	copy(out, i.recorded)
	return out
}

// LocalGate is an in-process TurnGate over a condition variable.
type LocalGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	turn int
}

var _ TurnGate = (*LocalGate)(nil)

// NewLocalGate returns a gate at turn 0.
func NewLocalGate() *LocalGate {
	g := &LocalGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// WaitTurn implements TurnGate.
func (g *LocalGate) WaitTurn(ctx context.Context, turn int) error {
	// Wake all waiters when the context dies so they can observe it.
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.turn != turn {
		if err := ctx.Err(); err != nil {
			return err
		}
		if g.turn > turn {
			return fmt.Errorf("proxy: turn %d already passed (at %d)", turn, g.turn)
		}
		g.cond.Wait()
	}
	return nil
}

// Advance implements TurnGate: advance, then wait.
func (g *LocalGate) Advance(ctx context.Context, n, next int) error {
	g.mu.Lock()
	g.turn += n
	g.cond.Broadcast()
	g.mu.Unlock()
	if next < 0 {
		return nil
	}
	return g.WaitTurn(ctx, next)
}

// Reset rewinds the gate to turn 0 for the next interleaving.
func (g *LocalGate) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.turn = 0
	g.cond.Broadcast()
}
