package proxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/lockserver"
)

func startLockServer(t *testing.T) (addr string, done func()) {
	t.Helper()
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, func() { _ = srv.Close() }
}

func TestDistPoolSessionKeys(t *testing.T) {
	addr, done := startLockServer(t)
	defer done()
	p := NewDistPool(addr, "live", 3, time.Second)
	defer p.Close()

	if got := p.Session().Key(); got != "live/sess/3/1" {
		t.Fatalf("first session key = %q; want live/sess/3/1", got)
	}
	if got := p.Session().Key(); got != "live/sess/3/2" {
		t.Fatalf("second session key = %q; want live/sess/3/2", got)
	}
}

// A cancelled session's turn progress must be invisible to the next
// epoch: the new session's counter starts at 0 no matter how far the old
// one got, and the old counter can never satisfy the new session's waits.
func TestDistSessionEpochFencing(t *testing.T) {
	addr, done := startLockServer(t)
	defer done()
	p := NewDistPool(addr, "live", 0, time.Second)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	s1 := p.Session()
	g1, err := s1.Gate("A")
	if err != nil {
		t.Fatal(err)
	}
	// Drive the stale session's counter to 2.
	for turn := 0; turn < 2; turn++ {
		if err := g1.WaitTurn(ctx, turn); err != nil {
			t.Fatal(err)
		}
		if err := g1.Advance(context.Background(), 1, -1); err != nil {
			t.Fatal(err)
		}
	}

	s2 := p.Session()
	g2, err := s2.Gate("A")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh epoch: turn 0 is ready with no writes at all.
	if err := g2.WaitTurn(ctx, 0); err != nil {
		t.Fatalf("fresh epoch's turn 0: %v", err)
	}
	if err := g2.Advance(context.Background(), 1, -1); err != nil {
		t.Fatal(err)
	}
	// The stale epoch is at 2; the fresh one is at 1. Turn 2 must NOT be
	// satisfied by the old counter.
	short, cancelShort := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelShort()
	if err := g2.WaitTurn(short, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitTurn(2) against a fresh epoch = %v; want deadline (stale counter must not leak)", err)
	}
	_ = s1.Close()
	_ = s2.Close()
}

// A session's only distributed state is its turn counter: it appears with
// the first advance, a run that fails (and so never advances) holds
// nothing more, and Close removes it — nothing of the session is left on
// the lock server.
func TestDistSessionCloseReleasesState(t *testing.T) {
	store := lockserver.NewStore()
	srv := lockserver.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewDistPool(addr, "live", 0, time.Minute)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// A session that minted no gate has nothing to release, and says so
	// without a request.
	if err := p.Session().Close(); err != nil || store.Len() != 0 {
		t.Fatalf("empty session Close = %v, store holds %d keys", err, store.Len())
	}

	s := p.Session()
	gA, err := s.Gate("A")
	if err != nil {
		t.Fatal(err)
	}
	gB, err := s.Gate("B")
	if err != nil {
		t.Fatal(err)
	}
	// Taking turn 0 of a fresh epoch writes nothing.
	if err := gA.WaitTurn(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store holds %d keys before the first advance; want 0", store.Len())
	}
	if err := gA.Advance(context.Background(), 2, -1); err != nil {
		t.Fatal(err)
	}
	// B takes turn 2 and fails mid-run: it returns without Advance.
	if err := gB.WaitTurn(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := store.Get(s.Key() + ":turn"); v != "2" || store.Len() != 1 {
		t.Fatalf("session state = counter %q among %d keys; want 2 and nothing else", v, store.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("%d keys survived session Close; want 0", store.Len())
	}
}

// Connections are per replica and reused across epochs, not re-dialed per
// session: a parked blocking wait owns its connection, so replicas must
// not share one, but epochs safely can.
func TestDistPoolReusesClientsAcrossEpochs(t *testing.T) {
	addr, done := startLockServer(t)
	defer done()
	p := NewDistPool(addr, "live", 0, time.Second)
	defer p.Close()

	for i := 0; i < 3; i++ {
		s := p.Session()
		for _, rep := range []event.ReplicaID{"A", "B"} {
			if _, err := s.Gate(rep); err != nil {
				t.Fatal(err)
			}
		}
		_ = s.Close()
	}
	p.mu.Lock()
	n := len(p.clients)
	p.mu.Unlock()
	if n != 2 {
		t.Fatalf("pool holds %d clients after 3 epochs x 2 replicas; want 2", n)
	}
}
