package lockserver

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestInterruptCutsParkedWaitShort: a WaitTurn parked on the server
// returns as soon as its dying context's AfterFunc interrupts the client —
// while the server still holds the wait, not when the wait's chunk ends —
// and the client's later requests get their own replies on a fresh
// connection, never the abandoned wait's.
func TestInterruptCutsParkedWaitShort(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seq := NewSequencer(c, "turn", time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := context.AfterFunc(ctx, seq.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- seq.WaitTurn(ctx, 5) }()
	parked(t, store, "turn", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted WaitTurn = %v; want context.Canceled", err)
	}
	if waiting(store, "turn") != 1 {
		t.Fatal("WaitTurn returned only after the server's wait chunk ended")
	}

	if err := c.Set("turn", "3"); err != nil {
		t.Fatalf("request after the interrupt: %v", err)
	}
	if v, ok, err := c.Get("turn"); err != nil || !ok || v != "3" {
		t.Fatalf("Get after the interrupt = %q, %v, %v; want 3", v, ok, err)
	}
	// Once the abandoned wait's reply has been sent to its connection, the
	// client still reads only its own replies.
	parked(t, store, "turn", 0)
	if err := NewSequencer(c, "turn", time.Millisecond).WaitTurn(context.Background(), 3); err != nil {
		t.Fatalf("WaitTurn on a fresh context after the interrupt: %v", err)
	}
	if v, ok, err := c.Get("turn"); err != nil || !ok || v != "3" {
		t.Fatalf("Get after the abandoned wait ended = %q, %v, %v; want 3", v, ok, err)
	}
}

// TestInterruptBetweenRequests: an Interrupt with no request in flight
// costs the next request a re-dial, not its reply.
func TestInterruptBetweenRequests(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	c.Interrupt()
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "v" {
		t.Fatalf("Get after an idle Interrupt = %q, %v, %v; want v", v, ok, err)
	}
}
