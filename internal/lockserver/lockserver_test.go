package lockserver

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStoreSetGetDel(t *testing.T) {
	s := NewStore()
	if !s.Set("k", "v", false, 0) {
		t.Fatal("plain set must succeed")
	}
	v, ok := s.Get("k")
	if !ok || v != "v" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if s.Set("k", "w", true, 0) {
		t.Fatal("NX on existing key must fail")
	}
	if !s.Del("k") {
		t.Fatal("del of existing key")
	}
	if s.Del("k") {
		t.Fatal("del of missing key")
	}
	if !s.Set("k", "w", true, 0) {
		t.Fatal("NX after delete must succeed")
	}
}

func TestStoreTTL(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	s := NewStoreWithClock(clock)
	s.Set("k", "v", false, 100*time.Millisecond)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("key must be live before expiry")
	}
	now = now.Add(101 * time.Millisecond)
	if _, ok := s.Get("k"); ok {
		t.Fatal("key must expire")
	}
	// NX succeeds on an expired key — lock TTL recovery after crash.
	if !s.Set("k", "w", true, 0) {
		t.Fatal("NX on expired key must succeed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreIncr(t *testing.T) {
	s := NewStore()
	for want := int64(1); want <= 3; want++ {
		n, err := s.Incr("c")
		if err != nil || n != want {
			t.Fatalf("Incr = %d, %v; want %d", n, err, want)
		}
	}
	s.Set("bad", "notanint", false, 0)
	if _, err := s.Incr("bad"); err == nil {
		t.Fatal("Incr of non-integer must fail")
	}
}

func TestStoreCompareAndDelete(t *testing.T) {
	s := NewStore()
	s.Set("lock", "tokenA", false, 0)
	if s.CompareAndDelete("lock", "tokenB") {
		t.Fatal("CAD with wrong token must fail")
	}
	if !s.CompareAndDelete("lock", "tokenA") {
		t.Fatal("CAD with right token must succeed")
	}
	if s.CompareAndDelete("lock", "tokenA") {
		t.Fatal("CAD on missing key must fail")
	}
}

func startServer(t *testing.T) (addr string, done func()) {
	t.Helper()
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, func() { _ = srv.Close() }
}

func TestServerEndToEnd(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ok, err := c.SetNX("lock", "tok", time.Minute)
	if err != nil || !ok {
		t.Fatalf("SetNX = %v, %v", ok, err)
	}
	ok, err = c.SetNX("lock", "tok2", time.Minute)
	if err != nil || ok {
		t.Fatalf("second SetNX must fail, got %v %v", ok, err)
	}
	v, found, err := c.Get("lock")
	if err != nil || !found || v != "tok" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	if _, found, _ := c.Get("missing"); found {
		t.Fatal("missing key must be nil")
	}
	n, err := c.Incr("counter")
	if err != nil || n != 1 {
		t.Fatalf("Incr = %d %v", n, err)
	}
	released, err := c.CompareAndDelete("lock", "wrong")
	if err != nil || released {
		t.Fatal("CAD with wrong token must fail")
	}
	released, err = c.CompareAndDelete("lock", "tok")
	if err != nil || !released {
		t.Fatalf("CAD = %v %v", released, err)
	}
	deleted, err := c.Del("counter")
	if err != nil || !deleted {
		t.Fatalf("Del = %v %v", deleted, err)
	}
	if err := c.Set("plain", "x"); err != nil {
		t.Fatal(err)
	}
}

func TestDMutexMutualExclusion(t *testing.T) {
	addr, done := startServer(t)
	defer done()

	const holders = 8
	const iterations = 20
	var critical int
	var inside int32
	var mu sync.Mutex // guards critical section bookkeeping checks
	var wg sync.WaitGroup
	errs := make(chan error, holders)
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			m := NewDMutex(c, "mutex", fmt.Sprintf("holder-%d", id), time.Minute, time.Millisecond)
			for j := 0; j < iterations; j++ {
				if err := m.Lock(context.Background()); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				inside++
				if inside != 1 {
					errs <- fmt.Errorf("mutual exclusion violated: %d holders inside", inside)
				}
				critical++
				inside--
				mu.Unlock()
				if err := m.Unlock(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if critical != holders*iterations {
		t.Fatalf("critical sections = %d, want %d", critical, holders*iterations)
	}
}

func TestDMutexUnlockNotHolder(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := NewDMutex(c, "m", "me", time.Minute, time.Millisecond)
	if err := m.Unlock(); err == nil {
		t.Fatal("unlock without lock must fail")
	}
	if err := m.Lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Another holder steals the key after TTL expiry simulation: delete it.
	if _, err := c.Del("m"); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlock(); err == nil {
		t.Fatal("unlock after losing the lock must fail")
	}
}

func TestDMutexLockContextCancel(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := NewDMutex(c, "m", "first", time.Minute, time.Millisecond)
	if err := first.Lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := NewDMutex(c, "m", "second", time.Minute, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := second.Lock(ctx); err == nil {
		t.Fatal("blocked lock must respect context cancellation")
	}
}

func TestSequencerOrdersEvents(t *testing.T) {
	addr, done := startServer(t)
	defer done()

	const n = 12
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(turn int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			seq := NewSequencer(c, "turn", time.Millisecond)
			if err := seq.WaitTurn(context.Background(), turn); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			order = append(order, turn)
			mu.Unlock()
			if err := seq.Advance(context.Background(), 1, -1); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, turn := range order {
		if turn != i {
			t.Fatalf("execution order %v violates the assigned turns", order)
		}
	}
}

func TestSequencerTurnAlreadyPassed(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seq := NewSequencer(c, "turn", time.Millisecond)
	if err := seq.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := seq.Advance(context.Background(), 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := seq.WaitTurn(context.Background(), 0); err == nil {
		t.Fatal("waiting for a passed turn must fail fast")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	addr, done := startServer(t)
	defer done()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Unknown command produces a RESP error surfaced by the client.
	if _, err := c.do("NONSENSE"); err != nil {
		t.Fatalf("transport error on unknown command: %v", err)
	}
	rep, err := c.do("NONSENSE")
	if err != nil {
		t.Fatal(err)
	}
	if rep.kind != '-' {
		t.Fatalf("expected error reply, got %+v", rep)
	}
}
