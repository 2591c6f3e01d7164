// Package lockserver provides the distributed-locking substrate ER-π uses
// to enforce event order during replay (paper §4.3). It contains a small
// Redis-compatible key-value server speaking a RESP subset over TCP
// (SET, GET, DEL, INCR, INCRBY, PING, plus WAITGE, a blocking wait for a
// counter that can first add to it, which Redis would need a script for),
// a reconnecting client, and a turn sequencer: a ticket lock whose "now
// serving" counter lives on the server.
//
// The paper deploys "a mutex with a shared key managed by a Redis server";
// this package is that server and lock, built from the standard library.
// History: replay once took an expiring SET NX lease per event as well,
// and the coordinator a renewed lease per range; the ticket lock made the
// first redundant and the coordinator's heartbeat deadline and epoch fence
// the second, so the mutex, its CAD/CEX commands and per-key TTLs are gone.
package lockserver

import (
	"slices"
	"strconv"
	"sync"
	"time"
)

// Store is the in-memory key-value state.
type Store struct {
	mu   sync.Mutex
	keys map[string]*entry
	// free holds up to maxFree entries of deleted keys, each with its
	// emptied waiter queue's array, for the next key inserted.
	free []*entry
}

// maxFree bounds the entries a burst of deleted keys leaves pinned; a
// live worker holds one session counter at a time, so this covers any
// worker pool a host runs.
const maxFree = 64

// entry is one key: its value and the WaitGE callers parked on it. A
// counter command leaves the value an int64, so counting formats and
// parses nothing; GET formats it. An entry that is not set holds only
// waiters, and its key reads as missing.
type entry struct {
	key   string // the map's key, so a delete converts nothing
	set   bool
	isInt bool
	n     int64  // the value, when isInt
	str   string // the value, otherwise
	// waiters holds the parked WaitGE callers with the value each is
	// waiting for; a mutation wakes only those it satisfies.
	waiters []*waiter
}

// int reads the entry's integer (missing = 0); e may be nil.
func (e *entry) int() (int64, error) {
	switch {
	case e == nil || !e.set:
		return 0, nil
	case e.isInt:
		return e.n, nil
	}
	return strconv.ParseInt(e.str, 10, 64)
}

func (e *entry) setInt(n int64) { e.set, e.isInt, e.n, e.str = true, true, n, "" }

// waiter is one parked WaitGE caller. A wake is a send on the buffered
// woken, not a close, so that a connection, which has at most one request
// in flight, reuses one waiter and one timer for all its waits. Whenever
// the waiter is not queued, woken is empty and the timer stopped and
// drained.
type waiter struct {
	target int64
	woken  chan struct{}
	timer  *time.Timer
}

// sleep blocks until w is woken, timeout elapses or cancel closes, and
// reports whether it was woken. This module's go line (1.22) gives timers
// the channel semantics from before Go 1.23, so a timer that did not fire
// is stopped and, if it fired meanwhile, drained before the next Reset.
func (w *waiter) sleep(timeout time.Duration, cancel <-chan struct{}) bool {
	if w.timer == nil {
		w.timer = time.NewTimer(timeout)
	} else {
		w.timer.Reset(timeout)
	}
	woken := false
	select {
	case <-w.woken:
		woken = true
	case <-w.timer.C:
		return false
	case <-cancel:
	}
	if !w.timer.Stop() {
		<-w.timer.C
	}
	return woken
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{keys: make(map[string]*entry)}
}

// entryLocked returns key's entry, inserting one if it has none — the
// only allocation a mutation of a warm store makes, its key's string.
// Callers hold s.mu.
func (s *Store) entryLocked(key []byte) *entry {
	if e := s.keys[string(key)]; e != nil {
		return e
	}
	var e *entry
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = new(entry)
	}
	e.key = string(key)
	s.keys[e.key] = e
	return e
}

// releaseLocked drops e once it is neither set nor waited on: keys are
// per session, so entries must not accumulate. Callers hold s.mu.
func (s *Store) releaseLocked(e *entry) {
	if e.set || len(e.waiters) > 0 {
		return
	}
	delete(s.keys, e.key)
	if len(s.free) < maxFree {
		*e = entry{waiters: e.waiters[:0]}
		s.free = append(s.free, e)
	}
}

// wakeLocked wakes the WaitGE callers parked on e that its new value
// satisfies (all of them if it stopped being an integer, so they can say
// so), taking them off its queue. Callers hold s.mu.
func (s *Store) wakeLocked(e *entry) {
	if len(e.waiters) == 0 {
		return
	}
	cur, err := e.int()
	kept := e.waiters[:0]
	for _, w := range e.waiters {
		if err != nil || cur >= w.target {
			select {
			case w.woken <- struct{}{}: // a queued waiter's is empty
			default:
			}
		} else {
			kept = append(kept, w)
		}
	}
	clear(e.waiters[len(kept):])
	e.waiters = kept
}

// Set writes key=value.
func (s *Store) Set(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked([]byte(key))
	e.set, e.isInt, e.str = true, false, value
	s.wakeLocked(e)
}

// Get returns the value for key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.keys[key]
	switch {
	case e == nil || !e.set:
		return "", false
	case e.isInt:
		return strconv.FormatInt(e.n, 10), true
	}
	return e.str, true
}

// Del removes key, reporting whether it was present.
func (s *Store) Del(key string) bool { return s.del([]byte(key)) }

func (s *Store) del(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.keys[string(key)]
	if e == nil || !e.set {
		return false
	}
	e.set, e.str = false, ""
	s.wakeLocked(e)
	s.releaseLocked(e)
	return true
}

// Incr is IncrBy(key, 1).
func (s *Store) Incr(key string) (int64, error) { return s.IncrBy(key, 1) }

// IncrBy atomically adds delta to the integer value at key (missing = 0)
// and returns the new value.
func (s *Store) IncrBy(key string, delta int64) (int64, error) {
	return s.incrBy([]byte(key), delta)
}

func (s *Store) incrBy(key []byte, delta int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(key) // a key it inserts reads 0, so no error leaves it behind
	n, err := e.int()
	if err != nil {
		return 0, err
	}
	e.setInt(n + delta)
	s.wakeLocked(e)
	return e.n, nil
}

// WaitGE adds delta to the integer value at key (missing = 0; delta 0
// writes nothing), then blocks until the value reaches at least target,
// the timeout elapses, or cancel closes, and returns the last value read.
// The caller distinguishes the cases by comparing the returned value
// against target — a sub-target return means the wait timed out or was
// cancelled. A non-integer value is an error, and then nothing is added.
//
// This is the server side of the blocking sequencer turn: instead of the
// client polling GET every millisecond, one WAITGE request parks here with
// its target and is woken by the mutation that reaches it — and by no
// other: an advance that hands the turn to one replica leaves the others
// parked. With a delta it is also the hand-off itself: the holder adds its
// run's length, which wakes the next run's owner, and parks for its own
// next run under the same acquisition of s.mu, so nothing can run between
// the advance and the wait.
func (s *Store) WaitGE(key string, delta, target int64, timeout time.Duration, cancel <-chan struct{}) (int64, error) {
	return s.waitGE(new(waiter), []byte(key), delta, target, timeout, cancel)
}

// waitGE is WaitGE parking w, which must not be queued already: the
// server passes each connection's one waiter.
func (s *Store) waitGE(w *waiter, key []byte, delta, target int64, timeout time.Duration, cancel <-chan struct{}) (int64, error) {
	cur, parked, err := s.park(w, key, delta, target, timeout)
	if !parked {
		return cur, err
	}
	return s.unpark(w, key, w.sleep(timeout, cancel))
}

// park is waitGE up to the wait: it adds delta and, unless the value
// settles the wait already, queues w on key.
func (s *Store) park(w *waiter, key []byte, delta, target int64, timeout time.Duration) (cur int64, parked bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.keys[string(key)]
	if cur, err = e.int(); err != nil {
		return cur, false, err
	}
	if delta != 0 {
		if e == nil {
			e = s.entryLocked(key)
		}
		cur += delta
		e.setInt(cur)
		s.wakeLocked(e)
	}
	if cur >= target || timeout <= 0 {
		return cur, false, nil
	}
	if e == nil {
		e = s.entryLocked(key) // holds only the waiter until a write sets it
	}
	if w.woken == nil {
		w.woken = make(chan struct{}, 1)
	}
	w.target = target
	e.waiters = append(e.waiters, w)
	return cur, true, nil
}

// unpark ends w's wait on key and reads the value. A wait that was not
// woken leaves the queue — unless a mutation took w off it and woke it
// after the timeout or cancel ended the sleep, and then that wake is
// drained, so that w's next wait does not take it for its own.
func (s *Store) unpark(w *waiter, key []byte, woken bool) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.keys[string(key)]
	cur, err := e.int()
	if woken {
		return cur, err
	}
	if e != nil {
		if i := slices.Index(e.waiters, w); i >= 0 {
			e.waiters = slices.Delete(e.waiters, i, i+1)
			s.releaseLocked(e)
			return cur, err
		}
	}
	select {
	case <-w.woken: // sent under s.mu, so it is buffered already
	default:
	}
	return cur, err
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.keys {
		if e.set {
			n++
		}
	}
	return n
}
