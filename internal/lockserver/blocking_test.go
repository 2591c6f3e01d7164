package lockserver

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreWaitGEImmediate(t *testing.T) {
	s := NewStore()
	s.Set("n", "3", false, 0)
	cur, err := s.WaitGE("n", 2, time.Second, nil)
	if err != nil || cur != 3 {
		t.Fatalf("WaitGE on a satisfied counter = %d, %v; want 3, nil", cur, err)
	}
	// A missing key reads 0: target 0 is satisfied without a write.
	cur, err = s.WaitGE("absent", 0, time.Second, nil)
	if err != nil || cur != 0 {
		t.Fatalf("WaitGE on a missing key = %d, %v; want 0, nil", cur, err)
	}
}

func TestStoreWaitGEWakesOnIncr(t *testing.T) {
	s := NewStore()
	done := make(chan int64, 1)
	go func() {
		cur, err := s.WaitGE("n", 2, 5*time.Second, nil)
		if err != nil {
			t.Error(err)
		}
		done <- cur
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Incr("n"); err != nil {
		t.Fatal(err)
	}
	select {
	case cur := <-done:
		t.Fatalf("WaitGE woke at %d, below target", cur)
	case <-time.After(30 * time.Millisecond):
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
	cur, err := s.WaitGE("n", 5, 30*time.Millisecond, nil)
	if err != nil || cur != 0 {
		t.Fatalf("timed-out WaitGE = %d, %v; want 0, nil", cur, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitGE overslept its timeout")
	}

	cancel := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(cancel)
	}()
	start = time.Now()
	if _, err := s.WaitGE("n", 5, 5*time.Second, cancel); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitGE ignored its cancel channel")
	}
}

func TestStoreWaitGENonInteger(t *testing.T) {
	s := NewStore()
	s.Set("n", "banana", false, 0)
	if _, err := s.WaitGE("n", 1, time.Second, nil); err == nil {
		t.Fatal("WaitGE on a non-integer value must error")
	}
}

func TestClientWaitGEOverTCP(t *testing.T) {
	addr, done := startServer(t)
	defer done()
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
	time.Sleep(20 * time.Millisecond)
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
	srv := NewServer(NewStore())
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
	time.Sleep(20 * time.Millisecond)
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

// stubNoWaitGE is a pre-WAITGE lock server: every WAITGE gets "unknown
// command", everything else gets a nil bulk (missing key). It counts the
// WAITGE attempts so tests can pin the client's latch-once fallback.
func stubNoWaitGE(t *testing.T) (addr string, waitges *atomic.Int64, done func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				in := commandReader{r: bufio.NewReader(conn)}
				for {
					args, err := in.read()
					if err != nil {
						return
					}
					var rep []byte
					switch strings.ToUpper(string(args[0])) {
					case "WAITGE":
						n.Add(1)
						rep = appendError(nil, "unknown command "+string(args[0]))
					case "PING":
						rep = appendSimple(nil, "PONG")
					default:
						rep = appendNil(nil)
					}
					if _, err := conn.Write(rep); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &n, func() { _ = ln.Close() }
}

// Against a server without WAITGE the client surfaces
// ErrBlockingUnsupported, and the sequencer latches onto the polling path
// permanently — one probe, not one per turn.
func TestSequencerFallsBackOnUnsupportedServer(t *testing.T) {
	addr, waitges, done := stubNoWaitGE(t)
	defer done()
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
	// The stub answers every GET with nil => counter 0, so turn 0 is ready.
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
	addr, done := startServer(t)
	defer done()
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
	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := other.Advance(1); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := seq.WaitTurn(ctx, 1); err != nil {
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

// Abandon releases a held mutex immediately — the teardown path of a
// cancelled range, where waiting out the TTL would stall the next holder.
func TestDMutexAbandonReleases(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	m := NewDMutex(c1, "mu", "tok", time.Minute, time.Millisecond)
	if err := m.Lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Abandon()
	if ok, err := c2.SetNX("mu", "rival", time.Second); err != nil || !ok {
		t.Fatalf("SetNX after Abandon = %v, %v; want immediate acquisition", ok, err)
	}
	// Abandon on an unheld mutex is a no-op, not a panic.
	m.Abandon()
}
