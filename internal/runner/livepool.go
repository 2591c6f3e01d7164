package runner

import (
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/proxy"
)

// This file holds the live replay path's session types. Live exploration
// shares the checkpointed path's driver (pool.go) — so every ordering
// guarantee documented there carries over — and differs only in the
// worker body: liveBody (worker.go) drives executeLive, one goroutine per
// replica under a gate session of its own, where the checkpointed worker
// drives an executor.
//
// Isolation between concurrent sessions comes from the session, not the
// engine: a LiveGates implementation must hand every session a fresh
// fenced namespace (proxy.DistPool mints sess/<worker>/<epoch> lock keys,
// so a stale WaitTurn or Advance from a cancelled attempt can never order
// the next attempt's events), and the default in-process factory simply
// builds a new LocalGate per session.

// LiveSession is one execution attempt's gate namespace: Gate mints the
// TurnGate for a replica, and Close releases whatever the session still
// holds (armed mutexes, counters). Sessions are single-use.
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

// localSession is the default in-process session: one LocalGate shared by
// all replicas, isolation by construction (nothing outlives the value).
type localSession struct {
	gate *proxy.LocalGate
}

func (s localSession) Gate(event.ReplicaID) (proxy.TurnGate, error) { return s.gate, nil }
func (s localSession) Close() error                                 { return nil }

func localSessions(int) (SessionFactory, error) {
	return func() (LiveSession, error) {
		return localSession{gate: proxy.NewLocalGate()}, nil
	}, nil
}
