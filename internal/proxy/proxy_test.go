package proxy

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
)

func TestRecordMode(t *testing.T) {
	i := New()
	if i.Mode() != Passthrough {
		t.Fatal("fresh interceptor must be passthrough")
	}
	i.StartRecording()
	calls := 0
	err := i.Call(context.Background(), event.Event{Kind: event.Update, Replica: "A", Op: "set.add"}, func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = i.Call(context.Background(), event.Event{Kind: event.Update, Replica: "B", Op: "set.remove"}, func() error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d", calls)
	}
	evs := i.StopRecording()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events", len(evs))
	}
	if evs[0].ID != 0 || evs[1].ID != 1 {
		t.Fatal("IDs must be dense record order")
	}
	if evs[0].Lamport != 1 || evs[1].Lamport != 2 {
		t.Fatal("Lamport stamps must be assigned")
	}
	if i.Mode() != Passthrough {
		t.Fatal("StopRecording must return to passthrough")
	}
}

func TestRecordRejectsInvalidEvent(t *testing.T) {
	i := New()
	i.StartRecording()
	err := i.Call(context.Background(), event.Event{Kind: event.Update}, func() error { return nil })
	if err == nil {
		t.Fatal("invalid event must be rejected in record mode")
	}
}

func TestPassthroughExecutes(t *testing.T) {
	i := New()
	ran := false
	if err := i.Call(context.Background(), event.Event{}, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("passthrough must execute the call")
	}
	if len(i.Recorded()) != 0 {
		t.Fatal("passthrough must not record")
	}
}

// replayLog builds a 4-event log: two updates at A, two at B.
func replayLog(t *testing.T) *event.Log {
	t.Helper()
	log, err := event.NewLog([]event.Event{
		{Kind: event.Update, Replica: "A", Op: "a1"},
		{Kind: event.Update, Replica: "A", Op: "a2"},
		{Kind: event.Update, Replica: "B", Op: "b1"},
		{Kind: event.Update, Replica: "B", Op: "b2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestReplayEnforcesInterleaving runs two replica goroutines, each issuing
// its calls in program order, and checks the interceptor forces the
// scheduled global order across them.
func TestReplayEnforcesInterleaving(t *testing.T) {
	log := replayLog(t)
	// Schedule: B's ops first, then A's.
	order := []event.ID{2, 3, 0, 1}
	i := New()
	gate := NewLocalGate()
	if err := i.StartReplay(log, order, gate); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var executed []string
	runReplica := func(r event.ReplicaID, ops []string) error {
		for _, op := range ops {
			err := i.Call(context.Background(), event.Event{Kind: event.Update, Replica: r, Op: op}, func() error {
				mu.Lock()
				executed = append(executed, op)
				mu.Unlock()
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs <- runReplica("A", []string{"a1", "a2"}) }()
	go func() { defer wg.Done(); errs <- runReplica("B", []string{"b1", "b2"}) }()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"b1", "b2", "a1", "a2"}
	for k := range want {
		if executed[k] != want[k] {
			t.Fatalf("executed = %v, want %v", executed, want)
		}
	}
	i.StopReplay()
	if i.Mode() != Passthrough {
		t.Fatal("StopReplay must return to passthrough")
	}
}

func TestReplayScheduleLengthMismatch(t *testing.T) {
	log := replayLog(t)
	i := New()
	if err := i.StartReplay(log, []event.ID{0, 1}, NewLocalGate()); err == nil {
		t.Fatal("short schedule must be rejected")
	}
	for _, order := range [][]event.ID{{0, 1, 2, 2}, {0, 1, 2, 4}} {
		if err := i.StartReplay(log, order, NewLocalGate()); err == nil {
			t.Fatalf("schedule %v is not a permutation of the log and must be rejected", order)
		}
		if i.Mode() != Passthrough {
			t.Fatal("a rejected schedule must not leave the interceptor armed")
		}
	}
}

// An interceptor is re-armed per interleaving: each arming replaces the
// schedule and the per-replica call pairing, and CallScheduled takes a run
// only if it sits on consecutive turns of the current schedule.
func TestReplayRearm(t *testing.T) {
	log := replayLog(t)
	i := New()
	ctx := context.Background()
	for _, order := range [][]event.ID{{2, 3, 0, 1}, {0, 2, 1, 3}, {3, 2, 1, 0}} {
		if err := i.StartReplay(log, order, NewLocalGate()); err != nil {
			t.Fatal(err)
		}
		var got []event.ID
		for turn := range order {
			if err := i.CallScheduled(ctx, order[turn:turn+1], -1, func(int) error {
				got = append(got, order[turn])
				return nil
			}); err != nil {
				t.Fatalf("order %v turn %d: %v", order, turn, err)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(order) {
			t.Fatalf("executed %v under schedule %v", got, order)
		}
	}
	// Under {3, 2, 1, 0} events 3 and 2 are one run; 3 and 1 are not, and
	// neither is anything outside the log.
	if err := i.StartReplay(log, []event.ID{3, 2, 1, 0}, NewLocalGate()); err != nil {
		t.Fatal(err)
	}
	for _, run := range [][]event.ID{{3, 1}, {2, 3}, {3, 9}} {
		if err := i.CallScheduled(ctx, run, -1, func(int) error { t.Fatalf("step of bad run %v ran", run); return nil }); err == nil {
			t.Fatalf("run %v does not sit on consecutive turns and must be rejected", run)
		}
	}
	steps := 0
	if err := i.CallScheduled(ctx, []event.ID{3, 2}, -1, func(k int) error { steps++; return nil }); err != nil || steps != 2 {
		t.Fatalf("run {3, 2} = %v after %d steps; want 2 steps", err, steps)
	}
	// The hand-off's next turn must come after the run it ends.
	if err := i.CallScheduled(ctx, []event.ID{1}, 2, func(int) error { t.Fatal("step ran"); return nil }); err == nil {
		t.Fatal("a next turn inside the run must be rejected")
	}
	i.StopReplay()
	if err := i.CallScheduled(ctx, []event.ID{1}, -1, func(int) error { return nil }); err == nil {
		t.Fatal("CallScheduled outside replay mode must fail")
	}
}

func TestReplayTooManyCalls(t *testing.T) {
	log, err := event.NewLog([]event.Event{{Kind: event.Update, Replica: "A", Op: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	i := New()
	if err := i.StartReplay(log, []event.ID{0}, NewLocalGate()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := i.Call(ctx, event.Event{Kind: event.Update, Replica: "A"}, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := i.Call(ctx, event.Event{Kind: event.Update, Replica: "A"}, func() error { return nil }); err == nil {
		t.Fatal("excess call must be rejected")
	}
}

func TestReplayPropagatesCallError(t *testing.T) {
	log, err := event.NewLog([]event.Event{{Kind: event.Update, Replica: "A", Op: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	i := New()
	if err := i.StartReplay(log, []event.ID{0}, NewLocalGate()); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("boom")
	err = i.Call(context.Background(), event.Event{Kind: event.Update, Replica: "A"}, func() error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestLocalGateOrdering(t *testing.T) {
	g := NewLocalGate()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for turn := 3; turn >= 0; turn-- {
		wg.Add(1)
		go func(turn int) {
			defer wg.Done()
			if err := g.WaitTurn(context.Background(), turn); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, turn)
			mu.Unlock()
			if err := g.Advance(context.Background(), 1, -1); err != nil {
				t.Error(err)
			}
		}(turn)
	}
	wg.Wait()
	for k, turn := range order {
		if turn != k {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestLocalGateContextCancel(t *testing.T) {
	g := NewLocalGate()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.WaitTurn(ctx, 5); err == nil {
		t.Fatal("blocked wait must respect cancellation")
	}
}

func TestLocalGateTurnPassed(t *testing.T) {
	g := NewLocalGate()
	if err := g.Advance(context.Background(), 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitTurn(context.Background(), 0); err == nil {
		t.Fatal("passed turn must fail fast")
	}
	g.Reset()
	if err := g.WaitTurn(context.Background(), 0); err != nil {
		t.Fatalf("after reset turn 0 must be ready: %v", err)
	}
}
