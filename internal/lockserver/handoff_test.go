package lockserver

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordOps installs a hook on c that records every request it puts on
// the wire as one line, and returns a reader of the lines so far.
func recordOps(c *Client) func() []string {
	var (
		mu  sync.Mutex
		ops []string
	)
	c.SetFaultHook(func(op string, args []string) error {
		mu.Lock()
		defer mu.Unlock()
		ops = append(ops, op+" "+strings.Join(args, " "))
		return nil
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ops)
	}
}

// dialSequencer is a sequencer on key "turn" over its own connection.
func dialSequencer(t *testing.T, addr string) (*Sequencer, *Client) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return NewSequencer(c, "turn", time.Millisecond), c
}

// An advance-and-wait is one request: it wakes the replica the new value
// serves, and parks its sender until the counter reaches the sender's own
// next turn.
func TestHandoffWakesNextAndParksHolder(t *testing.T) {
	store, addr := serveStore(t)
	holder, hc := dialSequencer(t, addr)
	next, _ := dialSequencer(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := holder.WaitTurn(ctx, 0); err != nil {
		t.Fatal(err)
	}
	nextErr := make(chan error, 1)
	go func() { nextErr <- next.WaitTurn(ctx, 2) }()
	parked(t, store, "turn", 1)
	ops := recordOps(hc)
	holderErr := make(chan error, 1)
	go func() { holderErr <- holder.Advance(ctx, 2, 5) }()
	if err := <-nextErr; err != nil {
		t.Fatalf("the replica the hand-off serves: %v", err)
	}
	// The add and the park are one step of the store: once the other
	// replica is woken, the holder is parked for turn 5.
	if !slices.Equal(targets(store, "turn"), []int64{5}) {
		t.Fatal("the holder is not parked for its next turn 5 after its hand-off")
	}
	select {
	case err := <-holderErr:
		t.Fatalf("hand-off returned at turn 2, before its next turn 5: %v", err)
	default:
	}
	if err := next.Advance(ctx, 3, -1); err != nil {
		t.Fatal(err)
	}
	if err := <-holderErr; err != nil {
		t.Fatalf("hand-off once turn 5 came: %v", err)
	}
	if got, want := ops(), []string{"WAITGE turn 5 100 2"}; !slices.Equal(got, want) {
		t.Fatalf("hand-off sent %q; want the one request %q", got, want)
	}
}

// When the hand-off's 100 ms chunk ends below its target, the sequencer
// parks again with a plain WAITGE: the increment is sent once.
func TestHandoffChunkTimeoutAddsOnce(t *testing.T) {
	store, addr := serveStore(t)
	holder, hc := dialSequencer(t, addr)
	other, _ := dialSequencer(t, addr)
	var deltas atomic.Int64
	reparked := make(chan struct{}, 1)
	hc.SetFaultHook(func(op string, args []string) error {
		switch {
		case op == "WAITGE" && len(args) == 4:
			deltas.Add(1)
		case op == "WAITGE":
			select {
			case reparked <- struct{}{}:
			default:
			}
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	errc := make(chan error, 1)
	go func() { errc <- holder.Advance(ctx, 1, 2) }()
	select {
	case <-reparked:
	case <-ctx.Done():
		t.Fatal("the hand-off never parked again with a plain WAITGE after its chunk ended")
	}
	parked(t, store, "turn", 1)
	if err := other.Advance(ctx, 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("hand-off across a chunk timeout: %v", err)
	}
	if n := deltas.Load(); n != 1 {
		t.Fatalf("%d requests carried the delta; want 1", n)
	}
	if v, _ := store.Get("turn"); v != "2" {
		t.Fatalf("counter = %s after advances by 1 and 1; want 2", v)
	}
}

// An advance-and-wait parked on the server returns as soon as its dying
// context interrupts the client, like a parked WaitTurn
// (TestInterruptCutsParkedWaitShort); its increment stands.
func TestHandoffInterruptCutsParkedWaitShort(t *testing.T) {
	store, addr := serveStore(t)
	seq, c := dialSequencer(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := context.AfterFunc(ctx, seq.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- seq.Advance(ctx, 1, 5) }()
	parked(t, store, "turn", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted hand-off = %v; want context.Canceled", err)
	}
	if waiting(store, "turn") != 1 {
		t.Fatal("the hand-off returned only after the server's wait chunk ended")
	}
	if v, ok, err := c.Get("turn"); err != nil || !ok || v != "1" {
		t.Fatalf("Get after the interrupt = %q, %v, %v; want the one increment, 1", v, ok, err)
	}
}

// An advance-and-wait whose reply is lost is not retried, like a plain
// advance (TestAdvanceNotRetriedOnLostReply): the counter moves once.
func TestHandoffNotRetriedOnLostReply(t *testing.T) {
	store := NewStore()
	addr, done := lossyServer(t, store)
	t.Cleanup(done) // after the client's cleanup closes its connection
	seq, c := dialSequencer(t, addr)
	c.SetReconnect(4, time.Millisecond)
	ops := recordOps(c)
	ctx := context.Background()

	if err := seq.Advance(ctx, 1, 1); err == nil {
		t.Fatal("a hand-off with a lost reply must fail, not retry")
	}
	if v, _ := store.Get("turn"); v != "1" {
		t.Fatalf("counter = %q after one hand-off by 1 with a lost reply; want 1", v)
	}
	if got := ops(); len(got) != 1 {
		t.Fatalf("the hand-off put %q on the wire; want one request", got)
	}
	// The client heals, and the sequencer keeps the one-request hand-off.
	if err := seq.Advance(ctx, 1, 2); err != nil {
		t.Fatalf("hand-off after the loss: %v", err)
	}
	if got := ops(); len(got) != 2 || got[1] != "WAITGE turn 2 100 1" {
		t.Fatalf("requests %q; want a second advance-and-wait", got)
	}
}

// A server that rejects the delta answers before applying anything, and
// the sequencer latches onto INCRBY and polling GETs: a lock server from
// before the delta gets what a plain Redis gets. Only the first hand-off
// probes.
func TestHandoffFallbackLadder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reject func(args [][]byte) string
	}{
		{"lock server before the delta", func(args [][]byte) string {
			if len(args) == 5 {
				return "WAITGE requires key, target, and timeout"
			}
			return ""
		}},
		{"plain Redis", noWaitGE(new(atomic.Int64))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, addr := stubServer(t, tc.reject)
			seq, c := dialSequencer(t, addr)
			ops := recordOps(c)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for next := 1; next <= 2; next++ {
				if err := seq.Advance(ctx, 1, next); err != nil {
					t.Fatalf("hand-off to %d: %v", next, err)
				}
			}
			want := []string{"WAITGE turn 1 100 1", "INCRBY turn 1", "GET turn", "INCRBY turn 1", "GET turn"}
			if got := ops(); !slices.Equal(got, want) {
				t.Fatalf("requests %q; want %q", got, want)
			}
			if v, _ := store.Get("turn"); v != "2" {
				t.Fatalf("counter = %q after two hand-offs by 1; want 2 (the rejected request must add nothing)", v)
			}
		})
	}
}
