package lockserver

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waiting reports how many WAITGE callers the store holds parked on key.
// It allocates nothing, so an allocation gate may poll it.
func waiting(s *Store, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.keys[key]; e != nil {
		return len(e.waiters)
	}
	return 0
}

// targets lists the targets of the WAITGE callers parked on key, in queue
// order.
func targets(s *Store, key string) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	if e := s.keys[key]; e != nil {
		for _, w := range e.waiters {
			out = append(out, w.target)
		}
	}
	return out
}

// parked waits until the store holds n WAITGE callers parked on key, so a
// test acts on a wait that is known to have parked rather than on one
// given time to.
func parked(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); waiting(s, key) != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked on %s; want %d", waiting(s, key), key, n)
		}
	}
}

// serveStore serves a fresh store over TCP until the test ends.
func serveStore(t *testing.T) (*Store, string) {
	t.Helper()
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return store, addr
}

func TestStoreWaitGEImmediate(t *testing.T) {
	s := NewStore()
	s.Set("n", "3")
	cur, err := s.WaitGE("n", 0, 2, time.Second, nil)
	if err != nil || cur != 3 {
		t.Fatalf("WaitGE on a satisfied counter = %d, %v; want 3, nil", cur, err)
	}
	// A missing key reads 0: target 0 is satisfied without a write.
	cur, err = s.WaitGE("absent", 0, 0, time.Second, nil)
	if err != nil || cur != 0 {
		t.Fatalf("WaitGE on a missing key = %d, %v; want 0, nil", cur, err)
	}
}

func TestStoreWaitGEWakesOnIncr(t *testing.T) {
	s := NewStore()
	done := make(chan int64, 1)
	go func() {
		cur, err := s.WaitGE("n", 0, 2, 5*time.Second, nil)
		if err != nil {
			t.Error(err)
		}
		done <- cur
	}()
	parked(t, s, "n", 1)
	if _, err := s.Incr("n"); err != nil {
		t.Fatal(err)
	}
	// A mutation wakes its waiters before it returns: one below the
	// target is still parked.
	if waiting(s, "n") != 1 {
		t.Fatal("WaitGE woke below its target")
	}
	if _, err := s.Incr("n"); err != nil {
		t.Fatal(err)
	}
	select {
	case cur := <-done:
		if cur != 2 {
			t.Fatalf("WaitGE = %d; want 2", cur)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitGE never woke after the counter reached its target")
	}
}

func TestStoreWaitGETimeoutAndCancel(t *testing.T) {
	s := NewStore()
	start := time.Now()
	cur, err := s.WaitGE("n", 0, 5, 30*time.Millisecond, nil)
	if err != nil || cur != 0 {
		t.Fatalf("timed-out WaitGE = %d, %v; want 0, nil", cur, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitGE overslept its timeout")
	}

	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.WaitGE("n", 0, 5, 5*time.Second, cancel)
		errc <- err
	}()
	parked(t, s, "n", 1)
	close(cancel)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitGE ignored its cancel channel")
	}
}

func TestStoreWaitGENonInteger(t *testing.T) {
	s := NewStore()
	s.Set("n", "banana")
	if _, err := s.WaitGE("n", 0, 1, time.Second, nil); err == nil {
		t.Fatal("WaitGE on a non-integer value must error")
	}
}

func TestClientWaitGEOverTCP(t *testing.T) {
	store, addr := serveStore(t)
	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	woke := make(chan int64, 1)
	go func() {
		cur, err := waiter.WaitGE("turn", 1, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		woke <- cur
	}()
	parked(t, store, "turn", 1)
	if _, err := writer.Incr("turn"); err != nil {
		t.Fatal(err)
	}
	select {
	case cur := <-woke:
		if cur != 1 {
			t.Fatalf("WAITGE = %d; want 1", cur)
		}
	case <-time.After(time.Second):
		t.Fatal("parked WAITGE never woke on the increment")
	}
}

// Closing the server must promptly unpark every blocked WAITGE instead of
// deadlocking Close behind parked connection handlers.
func TestServerCloseUnblocksWaitGE(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	returned := make(chan struct{})
	go func() {
		_, _ = c.WaitGE("turn", 1, 10*time.Second)
		close(returned)
	}()
	parked(t, store, "turn", 1)
	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	for _, ch := range []chan struct{}{closed, returned} {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("server Close wedged behind a parked WAITGE")
		}
	}
}

// stubServer serves a fresh store like Server does, except that a request
// for which reject returns a message is answered with that error and
// applies nothing: a server from before a command or argument existed, as
// far as the requests it rejects go.
func stubServer(t *testing.T, reject func(args [][]byte) string) (store *Store, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store = NewStore()
	srv := NewServer(store)
	var wg sync.WaitGroup
	t.Cleanup(func() { _ = ln.Close(); _ = srv.Close(); wg.Wait() })
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
					var rep []byte
					if msg := reject(args); msg != "" {
						rep = appendError(nil, msg)
					} else {
						rep = srv.dispatch(nil, args)
					}
					if _, err := conn.Write(rep); err != nil {
						return
					}
				}
			}()
		}
	}()
	return store, ln.Addr().String()
}

// noWaitGE makes stubServer a plain Redis as far as WAITGE goes: it does
// not know the command. It counts the WAITGEs rejected.
func noWaitGE(n *atomic.Int64) func(args [][]byte) string {
	return func(args [][]byte) string {
		if !strings.EqualFold(string(args[0]), "WAITGE") {
			return ""
		}
		n.Add(1)
		return "unknown command " + string(args[0])
	}
}

// Against a server without WAITGE the client surfaces
// ErrBlockingUnsupported, and the sequencer latches onto the polling path
// permanently — one probe, not one per turn.
func TestSequencerFallsBackOnUnsupportedServer(t *testing.T) {
	var waitges atomic.Int64
	_, addr := stubServer(t, noWaitGE(&waitges))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.WaitGE("turn", 1, time.Millisecond); !errors.Is(err, ErrBlockingUnsupported) {
		t.Fatalf("WaitGE against a pre-WAITGE server = %v; want ErrBlockingUnsupported", err)
	}

	seq := NewSequencer(c, "turn", time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// The counter is absent => 0, so turn 0 is ready.
	if err := seq.WaitTurn(ctx, 0); err != nil {
		t.Fatalf("WaitTurn via polling fallback: %v", err)
	}
	if err := seq.WaitTurn(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// One probe from the explicit WaitGE above, one from the first
	// WaitTurn; the second WaitTurn must not probe again.
	if got := waitges.Load(); got != 2 {
		t.Fatalf("server saw %d WAITGEs; want 2 (fallback must latch)", got)
	}
}

func TestBlockingWaitTurnWakesOnAdvance(t *testing.T) {
	store, addr := serveStore(t)
	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	advancer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer advancer.Close()

	seq := NewSequencer(waiter, "turn", time.Millisecond)
	other := NewSequencer(advancer, "turn", time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- seq.WaitTurn(ctx, 1) }()
	parked(t, store, "turn", 1)
	if err := other.Advance(ctx, 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("blocking WaitTurn: %v", err)
	}
}

// The blocking wait chunks its server-side timeout so a dead context is
// noticed promptly even when the turn never comes.
func TestBlockingWaitTurnHonorsDeadline(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seq := NewSequencer(c, "turn", time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = seq.WaitTurn(ctx, 99)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitTurn on a turn that never comes = %v; want deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("blocking WaitTurn took %v to honor its deadline", elapsed)
	}
}
