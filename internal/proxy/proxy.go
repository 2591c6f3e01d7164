// Package proxy is ER-π's replay gating layer (paper §4.3): in a live
// replay every replica's goroutine holds each of its RDL calls until the
// schedule grants its turn. TurnGate is the ticket lock that orders the
// turns, RunTurns the one critical section a replica runs its calls in,
// LocalGate the in-process gate, and DistPool/DistSession mint the
// lock-server gates, one epoch-fenced session per attempt.
//
// The paper's proxies also extract RDL calls as events (§4.1); here that
// is runner.Recorder, which records and applies each call itself.
package proxy

import (
	"context"
	"fmt"
	"sync"
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

// RunTurns is the one critical section of replay. The caller owns the n
// consecutive turns turn..turn+n-1 of a schedule of end turns, and runs
// step(0), …, step(n-1) on them: it takes the schedule at turn unless it
// holds it already — held, because the hand-off that ended its previous
// run waited for this one, or turn 0, where a replay's gate starts — runs
// the steps back to back, and, unless they end the schedule, hands it on
// by n and waits for next, the first turn of its next run, or returns at
// once when next < 0 (see TurnGate.Advance). A replica that walks its runs
// in schedule order thus passes held for every run but its first.
//
// A failed step comes back as it is. A failed step, or a context that died
// between steps, leaves the schedule where it was taken — un-advanced, so
// no later turn can start. Arguments that name no run of the schedule
// (turn < 0, n < 1, a run past end, a next turn inside the run or past
// end) fail before any step runs.
func RunTurns(ctx context.Context, gate TurnGate, turn, n, end int, held bool, next int, step func(k int) error) error {
	if turn < 0 || n < 1 || turn+n > end || next >= 0 && (next < turn+n || next >= end) {
		return fmt.Errorf("proxy: no run of %d turns at turn %d with next %d in a schedule of %d", n, turn, next, end)
	}
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
