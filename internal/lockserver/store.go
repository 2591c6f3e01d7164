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
	data map[string]string
	// waiters holds, per key, the parked WaitGE callers with the value
	// each is waiting for; a mutation wakes only those it satisfies.
	waiters map[string][]*waiter
}

type waiter struct {
	target int64
	woken  chan struct{}
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]string), waiters: make(map[string][]*waiter)}
}

// wakeLocked wakes the WaitGE callers parked on key that its new value
// satisfies (all of them if it stopped being an integer, so they can say
// so). Callers hold s.mu.
func (s *Store) wakeLocked(key string) {
	parked := s.waiters[key]
	if len(parked) == 0 {
		return
	}
	cur, err := s.intLocked(key)
	kept := parked[:0]
	for _, w := range parked {
		if err != nil || cur >= w.target {
			close(w.woken)
		} else {
			kept = append(kept, w)
		}
	}
	clear(parked[len(kept):])
	s.setWaitersLocked(key, kept)
}

// setWaitersLocked stores key's queue, dropping the map entry with its
// last waiter: keys are per session, so empty queues must not accumulate.
func (s *Store) setWaitersLocked(key string, parked []*waiter) {
	if len(parked) == 0 {
		delete(s.waiters, key)
	} else {
		s.waiters[key] = parked
	}
}

// intLocked reads the integer at key (missing = 0). Callers hold s.mu.
func (s *Store) intLocked(key string) (int64, error) {
	v, ok := s.data[key]
	if !ok {
		return 0, nil
	}
	return strconv.ParseInt(v, 10, 64)
}

// Set writes key=value.
func (s *Store) Set(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = value
	s.wakeLocked(key)
}

// Get returns the value for key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Del removes key, reporting whether it was present.
func (s *Store) Del(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.data[key]; !ok {
		return false
	}
	delete(s.data, key)
	s.wakeLocked(key)
	return true
}

// Incr is IncrBy(key, 1).
func (s *Store) Incr(key string) (int64, error) { return s.IncrBy(key, 1) }

// IncrBy atomically adds delta to the integer value at key (missing = 0)
// and returns the new value.
func (s *Store) IncrBy(key string, delta int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.intLocked(key)
	if err != nil {
		return 0, err
	}
	n += delta
	s.data[key] = strconv.FormatInt(n, 10)
	s.wakeLocked(key)
	return n, nil
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
	s.mu.Lock()
	cur, err := s.intLocked(key)
	if err == nil && delta != 0 {
		cur += delta
		s.data[key] = strconv.FormatInt(cur, 10)
		s.wakeLocked(key)
	}
	if err != nil || cur >= target || timeout <= 0 {
		s.mu.Unlock()
		return cur, err
	}
	w := &waiter{target: target, woken: make(chan struct{})}
	s.waiters[key] = append(s.waiters[key], w)
	s.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.woken:
	case <-timer.C:
	case <-cancel:
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.waiters[key], w); i >= 0 {
		// Timed out or cancelled: leave the queue (a woken waiter already has).
		s.setWaitersLocked(key, slices.Delete(s.waiters[key], i, i+1))
	}
	return s.intLocked(key)
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
