package lockserver

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A server restart between requests must be invisible to the client: the
// request loop re-dials and retries.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
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
	c.SetReconnect(10, 5*time.Millisecond)
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}

	_ = srv.Close()
	srv2 := NewServer(NewStore())
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer srv2.Close()

	// The old connection is dead; the call must reconnect and succeed
	// against the restarted server.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
	if err := c.Set("k2", "w"); err != nil {
		t.Fatalf("set after restart: %v", err)
	}
}

// A fault hook models a lock-server outage window: requests fail without
// touching the wire, then heal when the hook clears.
func TestClientFaultHookOutage(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReconnect(2, time.Millisecond)

	outage := errors.New("injected outage")
	c.SetFaultHook(func(op string, args []string) error { return outage })
	if err := c.Ping(); !errors.Is(err, outage) {
		t.Fatalf("ping during outage = %v; want wrapped injected error", err)
	}
	c.SetFaultHook(nil)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after outage heals: %v", err)
	}
}

// A hook that fails only the first attempts exercises the retry loop: the
// request must succeed once the fault clears within the attempt budget.
func TestClientRetriesThroughTransientFault(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReconnect(5, time.Millisecond)

	fails := 2
	c.SetFaultHook(func(op string, args []string) error {
		if fails > 0 {
			fails--
			return errors.New("flaky")
		}
		return nil
	})
	if err := c.Ping(); err != nil {
		t.Fatalf("ping through transient fault: %v", err)
	}
}

// Sequencer.WaitTurn polls through transient request errors instead of
// aborting the replay; a permanent outage is bounded by the context.
func TestSequencerWaitTurnToleratesOutage(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReconnect(1, time.Millisecond)

	seq := NewSequencer(c, "turn", time.Millisecond)
	if err := seq.Reset(); err != nil {
		t.Fatal(err)
	}

	fails := 3
	c.SetFaultHook(func(op string, args []string) error {
		if op == "GET" && fails > 0 {
			fails--
			return errors.New("outage")
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := seq.WaitTurn(ctx, 0); err != nil {
		t.Fatalf("WaitTurn through outage: %v", err)
	}

	// Permanent outage: the wait must return the context error, promptly.
	c.SetFaultHook(func(op string, args []string) error { return errors.New("down") })
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	start := time.Now()
	err = seq.WaitTurn(ctx2, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitTurn during permanent outage = %v; want deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("WaitTurn took %v to honor its deadline", elapsed)
	}
}
