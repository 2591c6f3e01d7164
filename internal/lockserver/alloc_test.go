package lockserver

import (
	"context"
	"testing"
	"time"
)

// TestRequestPathAllocBudget is the allocs/op regression gate on the lock
// server's request path: client and in-process server, over connections
// warmed by a first op. One op is a session's life on its counter, as two
// replicas of the live schedule lead it: the holder's hand-off (WAITGE
// with a delta) parks until the other replica's hand-off wakes it; that
// replica first takes its turn with a plain WAITGE, and its own hand-off
// parks until the holder's INCRBY; the holder then DELs the counter, which
// exists. Only the key string of the counter's insertion is left.
//
// The budget is the measured count plus 10 %. Before each connection kept
// one waiter and one timer, the store held counters as integers and the
// client encoded integers without building strings, an op allocated 31
// objects.
func TestRequestPathAllocBudget(t *testing.T) {
	const budget = 1.1 // measured 1
	_, addr := serveStore(t)
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	const key = "live/sess/0/1:turn"
	ctx := context.Background()
	start, done := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			_, err := other.WaitGE(key, 1, time.Minute)
			if err == nil {
				_, err = other.IncrByWaitGE(ctx, key, 1, 3, time.Minute)
			}
			done <- err
		}
	}()
	defer close(start)
	op := func() {
		start <- struct{}{}
		if cur, err := holder.IncrByWaitGE(ctx, key, 1, 2, time.Minute); err != nil || cur != 2 {
			t.Fatalf("hand-off = %d, %v; want 2", cur, err)
		}
		if cur, err := holder.IncrBy(key, 1); err != nil || cur != 3 {
			t.Fatalf("IncrBy = %d, %v; want 3", cur, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if deleted, err := holder.Del(key); err != nil || !deleted {
			t.Fatalf("Del = %v, %v; want the counter deleted", deleted, err)
		}
	}
	op() // warm the connections' buffers, waiters and timers
	got := testing.AllocsPerRun(200, op)
	t.Logf("request path: %.1f allocs/op (budget %.1f)", got, budget)
	if got > budget {
		t.Fatalf("request path allocates %.1f objects per op; budget %.1f", got, budget)
	}
}
