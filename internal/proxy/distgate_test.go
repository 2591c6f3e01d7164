package proxy

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/lockserver"
)

// TestDistGateEndToEnd is the distributed-replay integration test: three
// replica goroutines, each with its own lock-server connection, replay a
// scheduled interleaving; the lock server's turn sequencer, one per
// replica as DistPool builds it, enforces the global order exactly as
// §4.3 describes.
func TestDistGateEndToEnd(t *testing.T) {
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	log, err := event.NewLog([]event.Event{
		{Kind: event.Update, Replica: "A", Op: "a1"},
		{Kind: event.Update, Replica: "B", Op: "b1"},
		{Kind: event.Update, Replica: "C", Op: "c1"},
		{Kind: event.Update, Replica: "A", Op: "a2"},
		{Kind: event.Update, Replica: "B", Op: "b2"},
		{Kind: event.Update, Replica: "C", Op: "c2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule: all of C first, then B, then A.
	order := []event.ID{2, 5, 1, 4, 0, 3}

	// The coordinator resets the shared turn counter.
	coord, err := lockserver.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := lockserver.NewSequencer(coord, "sess:turn", 1).Reset(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var executed []string

	// Each replica connects separately and replays through its own gate —
	// the distributed analogue of the in-process LocalGate test.
	replicaOps := map[event.ReplicaID][]string{
		"A": {"a1", "a2"},
		"B": {"b1", "b2"},
		"C": {"c1", "c2"},
	}
	gates := make(map[event.ReplicaID]*lockserver.Sequencer)
	clients := make([]*lockserver.Client, 0, len(replicaOps))
	for rep := range replicaOps {
		c, err := lockserver.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		gates[rep] = lockserver.NewSequencer(c, "sess:turn", time.Millisecond)
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	// One interceptor per replica process, as in a real deployment: each
	// shares the same log + schedule but coordinates through its own gate.
	interceptors := make(map[event.ReplicaID]*Interceptor)
	for rep, gate := range gates {
		i := New()
		if err := i.StartReplay(log, order, gate); err != nil {
			t.Fatal(err)
		}
		interceptors[rep] = i
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(replicaOps))
	for rep, ops := range replicaOps {
		wg.Add(1)
		go func(rep event.ReplicaID, ops []string) {
			defer wg.Done()
			i := interceptors[rep]
			for _, op := range ops {
				err := i.Call(context.Background(), event.Event{Kind: event.Update, Replica: rep, Op: op}, func() error {
					mu.Lock()
					executed = append(executed, op)
					mu.Unlock()
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(rep, ops)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := []string{"c1", "c2", "b1", "b2", "a1", "a2"}
	if len(executed) != len(want) {
		t.Fatalf("executed %v", executed)
	}
	for i := range want {
		if executed[i] != want[i] {
			t.Fatalf("distributed replay order %v, want %v", executed, want)
		}
	}
}
