package proxy

import (
	"fmt"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/lockserver"
)

// TestDistGateEndToEnd is the distributed-replay integration test: three
// replica goroutines, each with its own lock-server connection, hand their
// runs of a scheduled interleaving to RunTurns; the lock server's turn
// sequencer, one per replica as DistPool builds it, enforces the global
// order exactly as §4.3 describes.
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
	// Schedule: a run of two at C, then B and A alternate.
	order := []event.ID{2, 5, 1, 0, 4, 3}

	// The coordinator resets the shared turn counter.
	coord, err := lockserver.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := lockserver.NewSequencer(coord, "sess:turn", 1).Reset(); err != nil {
		t.Fatal(err)
	}

	// Each replica connects separately and replays through its own gate —
	// the distributed analogue of the in-process LocalGate test.
	gates := make(map[event.ReplicaID]TurnGate)
	for _, rep := range log.Replicas() {
		c, err := lockserver.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		gates[rep] = lockserver.NewSequencer(c, "sess:turn", time.Millisecond)
	}
	executed := replayOps(t, log, order, gates)

	if got, want := fmt.Sprint(executed), "[c1 c2 b1 a1 b2 a2]"; got != want {
		t.Fatalf("distributed replay order %s, want %s", got, want)
	}
}
