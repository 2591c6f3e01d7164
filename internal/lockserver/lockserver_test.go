package lockserver

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestStoreSetGetDel(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	if v, ok := s.Get("k"); !ok || v != "v" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	s.Set("k", "w")
	if v, ok := s.Get("k"); !ok || v != "w" {
		t.Fatalf("Get after overwrite = %q %v", v, ok)
	}
	if !s.Del("k") {
		t.Fatal("del of existing key")
	}
	if s.Del("k") {
		t.Fatal("del of missing key")
	}
	if _, ok := s.Get("k"); ok || s.Len() != 0 {
		t.Fatalf("deleted key still readable, or store holds %d keys", s.Len())
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
	s.Set("bad", "notanint")
	if _, err := s.Incr("bad"); err == nil {
		t.Fatal("Incr of non-integer must fail")
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
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", "w"); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("k")
	if err != nil || !found || v != "w" {
		t.Fatalf("Get = %q %v %v; want the overwrite", v, found, err)
	}
	if _, found, _ := c.Get("missing"); found {
		t.Fatal("missing key must be nil")
	}
	for want := int64(1); want <= 2; want++ {
		if n, err := c.Incr("counter"); err != nil || n != want {
			t.Fatalf("Incr = %d %v; want %d", n, err, want)
		}
	}
	if _, err := c.Incr("k"); err == nil {
		t.Fatal("Incr of a non-integer must fail")
	}
	for _, key := range []string{"k", "counter"} {
		if deleted, err := c.Del(key); err != nil || !deleted {
			t.Fatalf("Del(%s) = %v %v", key, deleted, err)
		}
	}
	if deleted, err := c.Del("k"); err != nil || deleted {
		t.Fatalf("Del of a deleted key = %v %v; want false", deleted, err)
	}
	if n, err := c.Incr("counter"); err != nil || n != 1 {
		t.Fatalf("Incr after Del = %d %v; want a fresh counter at 1", n, err)
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

// TestServerRejectsGarbage: an unknown command, and each lease command the
// server no longer serves (compare-and-delete, compare-and-expire, an
// expiring SET NX), gets an error reply on a connection that stays usable,
// and changes nothing in the store.
func TestServerRejectsGarbage(t *testing.T) {
	store, addr := serveStore(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("lock", "token"); err != nil {
		t.Fatal(err)
	}
	for _, req := range [][]string{
		{"NONSENSE"},
		{"CAD", "lock", "token"},
		{"CEX", "lock", "token", "100"},
		{"SET", "k", "v", "NX", "PX", "100"},
		{"SET", "lock", "other", "NX", "PX", "100"},
	} {
		rep, err := c.do(req...)
		if err != nil {
			t.Fatalf("%q: transport error: %v", req, err)
		}
		if rep.kind != '-' {
			t.Fatalf("%q: reply %+v; want an error", req, rep)
		}
		if v, ok := store.Get("lock"); !ok || v != "token" || store.Len() != 1 {
			t.Fatalf("%q changed the store: lock = %q %v among %d keys", req, v, ok, store.Len())
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after the rejections: %v", err)
	}
}
