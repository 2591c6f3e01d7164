package lockserver

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// INCRBY adds its argument, and puts exactly one request on the wire: a
// counting hook sees one call per call. INCR is served for plain Redis
// clients.
func TestIncrByOverTCP(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ops []string
	c.SetFaultHook(func(op string, args []string) error {
		ops = append(ops, op+" "+args[len(args)-1])
		return nil
	})

	if n, err := c.IncrBy("turn", 3); err != nil || n != 3 {
		t.Fatalf("IncrBy(3) = %d, %v; want 3", n, err)
	}
	if n, err := c.Incr("turn"); err != nil || n != 4 {
		t.Fatalf("Incr = %d, %v; want 4", n, err)
	}
	if n, err := c.IncrBy("turn", -4); err != nil || n != 0 {
		t.Fatalf("IncrBy(-4) = %d, %v; want 0", n, err)
	}
	if want := []string{"INCRBY 3", "INCRBY 1", "INCRBY -4"}; !slices.Equal(ops, want) {
		t.Fatalf("hook saw %q; want %q", ops, want)
	}

	c.SetFaultHook(nil)
	if rep, err := c.do("incr", "turn"); err != nil || rep.kind != ':' || rep.n != 1 {
		t.Fatalf("INCR = %+v, %v; want :1", rep, err)
	}
	if err := c.Set("word", "banana"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IncrBy("word", 1); err == nil {
		t.Fatal("IncrBy on a non-integer must fail")
	}
	for _, bad := range [][]string{{"INCRBY", "turn"}, {"INCRBY", "turn", "x"}, {"INCR"}} {
		if rep, err := c.do(bad...); err != nil || rep.kind != '-' {
			t.Fatalf("%q = %+v, %v; want an error reply", bad, rep, err)
		}
	}
}

// lossyServer serves store like Server does, except that it applies the
// first increment it receives — an INCR, an INCRBY or a WAITGE carrying a
// delta — and then drops the connection instead of replying: the
// ambiguous failure — applied, but the client cannot know.
func lossyServer(t *testing.T, store *Store) (addr string, done func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	var dropped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				in := commandReader{r: bufio.NewReader(conn)}
				for {
					args, err := in.read()
					if err != nil {
						return
					}
					incr := string(args[0]) == "INCR" || string(args[0]) == "INCRBY" ||
						string(args[0]) == "WAITGE" && len(args) == 5
					rep := srv.dispatch(nil, args)
					if incr && dropped.CompareAndSwap(false, true) {
						return
					}
					if _, err := conn.Write(rep); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); wg.Wait() }
}

// The bug this pins: Sequencer.Advance went through Client.do, which
// retries after any transport error — including a reply lost after the
// server applied the increment. The retry advanced the counter twice, a
// turn was skipped, and the session wedged until its timeout. An advance
// is now sent once and the ambiguity surfaces as an error.
func TestAdvanceNotRetriedOnLostReply(t *testing.T) {
	store := NewStore()
	addr, done := lossyServer(t, store)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReconnect(4, time.Millisecond)
	var sent int
	c.SetFaultHook(func(string, []string) error { sent++; return nil })

	seq := NewSequencer(c, "turn", time.Millisecond)
	if err := seq.Advance(context.Background(), 1, -1); err == nil {
		t.Fatal("Advance with a lost reply must fail, not retry")
	}
	if v, _ := store.Get("turn"); v != "1" {
		t.Fatalf("counter = %q after one Advance(1) with a lost reply; want 1 (a retry counted twice)", v)
	}
	if sent != 1 {
		t.Fatalf("Advance put %d requests on the wire; want 1", sent)
	}
	// The client heals for whatever the caller does next.
	if err := seq.Advance(context.Background(), 2, -1); err != nil {
		t.Fatalf("Advance after the loss: %v", err)
	}

	// A hook failure is not retried either: one call, one error.
	sent = 0
	c.SetFaultHook(func(string, []string) error { sent++; return errors.New("outage") })
	if err := seq.Advance(context.Background(), 1, -1); err == nil || sent != 1 {
		t.Fatalf("Advance under a failing hook = %v after %d hook calls; want an error after 1", err, sent)
	}
	if v, _ := store.Get("turn"); v != "3" {
		t.Fatalf("counter = %q; a request the hook refused must not reach the server", v)
	}
}

// Three waiters on three targets: an increment that satisfies one wakes
// exactly that one, taking it off the queue, and leaves the other two
// parked where they are. The waits are parked by hand and nobody sleeps on
// them, so a wake — a send on the waiter's buffered channel — stays
// pending where the test can count it.
func TestStoreWaitGEWakesOnlySatisfied(t *testing.T) {
	s := NewStore()
	key := []byte("turn")
	all := make([]*waiter, 3)
	for i := range all {
		all[i] = new(waiter)
		if cur, parked, err := s.park(all[i], key, 0, int64(i+1), time.Minute); !parked || err != nil {
			t.Fatalf("waiter for %d: park = %d, %v, %v; want it parked", i+1, cur, parked, err)
		}
	}
	// woken lists the targets of the waiters holding a wake.
	woken := func() (got []int64) {
		for _, w := range all {
			if len(w.woken) > 0 {
				got = append(got, w.target)
			}
		}
		return got
	}
	// finish ends the wait of a woken waiter, as its sleep would.
	finish := func(w *waiter) int64 {
		cur, err := s.unpark(w, key, w.sleep(time.Minute, nil))
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}

	if _, err := s.IncrBy("turn", 1); err != nil {
		t.Fatal(err)
	}
	if got := woken(); !slices.Equal(got, []int64{1}) {
		t.Fatalf("IncrBy to 1 woke the waiters for %v; want exactly the one waiting for 1", got)
	}
	if left := targets(s, "turn"); !slices.Equal(left, []int64{2, 3}) {
		t.Fatalf("still parked: targets %v; want [2 3]", left)
	}
	if cur := finish(all[0]); cur != 1 {
		t.Fatalf("woken waiter for 1 read %d; want 1", cur)
	}

	// A jump past both remaining targets wakes both, and empties the queue.
	if _, err := s.IncrBy("turn", 2); err != nil {
		t.Fatal(err)
	}
	if got := woken(); !slices.Equal(got, []int64{2, 3}) {
		t.Fatalf("the counter reached 3 and woke the waiters for %v; want [2 3]", got)
	}
	for _, w := range all[1:] {
		if cur := finish(w); cur != 3 {
			t.Fatalf("waiter for %d read %d; want 3", w.target, cur)
		}
	}
	if n := waiting(s, "turn"); n != 0 {
		t.Fatalf("waiter queue not emptied: %d left", n)
	}
}

// A WAITGE whose timeout fires while a mutation satisfies it: the sleep
// ended by the timer, and before the waiter took the store's lock again a
// mutation took it off the queue and woke it. The wake must not outlive
// the wait it was for: the same connection's next WAITGE, on the same
// waiter, parks until its own target instead of returning at once.
func TestWaitGEDrainsWakeRacingTimeout(t *testing.T) {
	s := NewStore()
	key := []byte("turn")
	var w waiter // the connection's one waiter
	if _, parked, err := s.park(&w, key, 0, 1, time.Minute); !parked || err != nil {
		t.Fatalf("park = %v, %v; want it parked", parked, err)
	}
	if _, err := s.IncrBy("turn", 1); err != nil {
		t.Fatal(err)
	}
	// The timer fired first: the wait ends as not woken.
	if cur, err := s.unpark(&w, key, false); err != nil || cur != 1 {
		t.Fatalf("unpark = %d, %v; want 1", cur, err)
	}
	if len(w.woken) != 0 {
		t.Fatal("the wake that raced the timeout outlived its wait")
	}

	got := make(chan int64, 1)
	go func() {
		cur, err := s.waitGE(&w, key, 0, 3, time.Minute, nil)
		if err != nil {
			t.Error(err)
		}
		got <- cur
	}()
	parked(t, s, "turn", 1)
	if _, err := s.IncrBy("turn", 2); err != nil {
		t.Fatal(err)
	}
	if cur := <-got; cur != 3 {
		t.Fatalf("the next WAITGE for 3 returned %d; want it parked until 3", cur)
	}
}

// A client that disconnects while parked leaves no waiter queued, whether
// its wait then ends by its timeout or by a mutation that wakes it: the
// handler's reply goes nowhere, and the entry the wait made for a missing
// key goes with the connection's waiter.
func TestDisconnectWhileParkedLeavesNoWaiter(t *testing.T) {
	for _, woken := range []bool{false, true} {
		store, addr := serveStore(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ms := "50"
		if woken {
			ms = "60000"
		}
		if _, err := conn.Write(appendCommand(nil, "WAITGE", "turn", "5", ms)); err != nil {
			t.Fatal(err)
		}
		parked(t, store, "turn", 1)
		_ = conn.Close()
		if woken {
			if _, err := store.IncrBy("turn", 5); err != nil {
				t.Fatal(err)
			}
			if !store.Del("turn") {
				t.Fatal("the counter was not set")
			}
		}
		parked(t, store, "turn", 0)
		store.mu.Lock()
		n := len(store.keys)
		store.mu.Unlock()
		if n != 0 {
			t.Fatalf("woken %v: store holds %d keys after the parked client left; want 0", woken, n)
		}
	}
}

// A waiter that times out leaves the queue, so a store serving long-lived
// counters does not accumulate the waits that gave up.
func TestStoreWaitGETimeoutLeavesQueue(t *testing.T) {
	s := NewStore()
	if cur, err := s.WaitGE("turn", 0, 5, time.Millisecond, nil); err != nil || cur != 0 {
		t.Fatalf("timed-out WaitGE = %d, %v; want 0, nil", cur, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.keys) != 0 {
		t.Fatalf("timed-out waiter still queued: %v", s.keys)
	}
}

// A run hand-off over the wire: the holder advances by the run's length
// and the waiter for the next run's first turn — and only that one — is
// released.
func TestSequencerAdvanceByRun(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *Sequencer {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return NewSequencer(c, "turn", time.Millisecond)
	}
	holder, next, later := dial(), dial(), dial()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := holder.WaitTurn(ctx, 0); err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 2)
	for turn, seq := range map[int]*Sequencer{3: next, 5: later} {
		go func() {
			if err := seq.WaitTurn(ctx, turn); err != nil {
				t.Error(err)
			}
			got <- turn
		}()
	}
	parked(t, store, "turn", 2)
	if err := holder.Advance(context.Background(), 3, -1); err != nil {
		t.Fatal(err)
	}
	if turn := <-got; turn != 3 {
		t.Fatalf("turn %d released by an advance to 3", turn)
	}
	if !slices.Equal(targets(store, "turn"), []int64{5}) {
		t.Fatal("the waiter for turn 5 did not stay parked through the advance to 3")
	}
	if err := next.Advance(context.Background(), 2, -1); err != nil {
		t.Fatal(err)
	}
	if turn := <-got; turn != 5 {
		t.Fatalf("turn %d released by an advance to 5", turn)
	}
}
