// Package lockserver provides the distributed-locking substrate ER-π uses
// to enforce event order during replay (paper §4.3). It contains a small
// Redis-compatible key-value server speaking a RESP subset over TCP
// (SET [NX] [PX], GET, DEL, INCR, INCRBY, PING, plus three commands Redis
// needs a script for: CAD and CEX, compare-and-delete / -expire, and WAITGE,
// a blocking wait for a counter that can first add to it), a reconnecting
// client, a Redlock-style
// distributed mutex with lease renewal, and a turn sequencer: a ticket lock
// whose "now serving" counter lives on the server.
//
// The paper deploys "a mutex with a shared key managed by a Redis server";
// this package is that server and lock, built from the standard library.
package lockserver

import (
	"slices"
	"strconv"
	"sync"
	"time"
)

// Store is the in-memory key-value state with per-key expiry. The clock is
// injectable so that TTL behaviour is testable without sleeping.
type Store struct {
	mu   sync.Mutex
	data map[string]entry
	now  func() time.Time
	// waiters holds, per key, the parked WaitGE callers with the value
	// each is waiting for; a mutation wakes only those it satisfies.
	waiters map[string][]*waiter
}

type waiter struct {
	target int64
	woken  chan struct{}
}

type entry struct {
	value     string
	expiresAt time.Time // zero = no expiry
}

// NewStore returns an empty store using the real clock.
func NewStore() *Store {
	return NewStoreWithClock(time.Now)
}

// NewStoreWithClock returns a store with an injected clock (tests).
func NewStoreWithClock(now func() time.Time) *Store {
	return &Store{data: make(map[string]entry), now: now, waiters: make(map[string][]*waiter)}
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
	if s.expiredLocked(key) {
		return 0, nil
	}
	return strconv.ParseInt(s.data[key].value, 10, 64)
}

func (s *Store) expiredLocked(k string) bool {
	e, ok := s.data[k]
	if !ok {
		return true
	}
	if !e.expiresAt.IsZero() && !s.now().Before(e.expiresAt) {
		delete(s.data, k)
		return true
	}
	return false
}

// Set writes key=value. When nx is true the write only happens if the key
// is absent (or expired); px>0 sets a TTL. Returns whether the write
// happened.
func (s *Store) Set(key, value string, nx bool, px time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nx && !s.expiredLocked(key) {
		return false
	}
	e := entry{value: value}
	if px > 0 {
		e.expiresAt = s.now().Add(px)
	}
	s.data[key] = e
	s.wakeLocked(key)
	return true
}

// Get returns the live value for key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expiredLocked(key) {
		return "", false
	}
	return s.data[key].value, true
}

// Del removes key, reporting whether it was present.
func (s *Store) Del(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expiredLocked(key) {
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
	s.data[key] = entry{value: strconv.FormatInt(n, 10)}
	s.wakeLocked(key)
	return n, nil
}

// CompareAndDelete removes key only if its current value equals expect:
// the atomic unlock primitive (Redis does this with a Lua script; we
// provide it as a first-class command). Returns whether the delete
// happened.
func (s *Store) CompareAndDelete(key, expect string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expiredLocked(key) {
		return false
	}
	if s.data[key].value != expect {
		return false
	}
	delete(s.data, key)
	s.wakeLocked(key)
	return true
}

// CompareAndExpire refreshes key's TTL to px only if its current value
// equals expect: the atomic lease-renewal primitive. A holder can extend
// its own lock without racing a takeover — if the lease already expired
// and another holder acquired it, the value no longer matches and the
// renewal reports false. px<=0 clears the expiry.
func (s *Store) CompareAndExpire(key, expect string, px time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expiredLocked(key) {
		return false
	}
	if s.data[key].value != expect {
		return false
	}
	e := entry{value: expect}
	if px > 0 {
		e.expiresAt = s.now().Add(px)
	}
	s.data[key] = e
	return true
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
		s.data[key] = entry{value: strconv.FormatInt(cur, 10)}
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

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.data {
		if !s.expiredLocked(k) {
			n++
		}
	}
	return n
}
