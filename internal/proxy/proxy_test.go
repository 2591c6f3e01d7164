package proxy

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
)

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

// replayOps plays order over gates the way the live runner does (see
// runCase.play) and returns the ops its steps executed, in execution order.
func replayOps(t *testing.T, log *event.Log, order []event.ID, gates map[event.ReplicaID]TurnGate) []string {
	t.Helper()
	c := caseOf(log, order)
	var mu sync.Mutex // a lock-server gate's ordering is invisible to the race detector
	var executed []string
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stops := c.play(t, ctx, cancel, gates, func(pos int) error {
		mu.Lock()
		defer mu.Unlock()
		executed = append(executed, log.Event(order[pos]).Op)
		return nil
	})
	if len(stops) != 0 {
		t.Fatalf("order %v: replicas failed: %v", order, stops)
	}
	return executed
}

// sharedGate hands one gate to every replica.
func sharedGate(g TurnGate) map[event.ReplicaID]TurnGate {
	return map[event.ReplicaID]TurnGate{"A": g, "B": g}
}

// noStep is a step that must not run.
func noStep(t *testing.T) func(int) error {
	return func(int) error { t.Fatal("a step of a rejected run ran"); return nil }
}

// TestReplayEnforcesInterleaving runs two replica goroutines, each handing
// its runs to RunTurns in program order, and checks one LocalGate forces
// the scheduled global order across them: B's events before A's, and
// alternating runs of one event each.
func TestReplayEnforcesInterleaving(t *testing.T) {
	log := replayLog(t)
	for _, tc := range []struct {
		order []event.ID
		want  string
	}{
		{[]event.ID{2, 3, 0, 1}, "[b1 b2 a1 a2]"},
		{[]event.ID{2, 0, 3, 1}, "[b1 a1 b2 a2]"},
	} {
		if got := fmt.Sprint(replayOps(t, log, tc.order, sharedGate(NewLocalGate()))); got != tc.want {
			t.Fatalf("order %v executed %s, want %s", tc.order, got, tc.want)
		}
	}
}

// TestReplayScheduleLengthMismatch: a run that does not fit the schedule —
// past its end, at a negative turn, or empty — is rejected before any step
// runs. Each run claims to hold its turn, so no gate wait stands between
// it and its steps.
func TestReplayScheduleLengthMismatch(t *testing.T) {
	ctx := context.Background()
	for _, run := range []struct{ turn, n, end int }{{3, 2, 4}, {4, 1, 4}, {-1, 1, 4}, {0, 0, 4}} {
		if err := RunTurns(ctx, NewLocalGate(), run.turn, run.n, run.end, true, -1, noStep(t)); err == nil {
			t.Fatalf("a run of %d at turn %d in a schedule of %d must be rejected", run.n, run.turn, run.end)
		}
	}
}

// TestReplayRearm: one LocalGate serves schedule after schedule, Reset
// between them, and a hand-off's next turn must come after the run it ends
// and inside the schedule.
func TestReplayRearm(t *testing.T) {
	log := replayLog(t)
	gate := NewLocalGate()
	for _, order := range [][]event.ID{{2, 3, 0, 1}, {0, 2, 1, 3}, {3, 2, 1, 0}} {
		gate.Reset()
		var want []string
		for _, id := range order {
			want = append(want, log.Event(id).Op)
		}
		if got := replayOps(t, log, order, sharedGate(gate)); !slices.Equal(got, want) {
			t.Fatalf("executed %v under schedule %v", got, order)
		}
	}
	gate.Reset()
	ctx := context.Background()
	for _, next := range []int{0, 1, 4} {
		if err := RunTurns(ctx, gate, 0, 2, 4, false, next, noStep(t)); err == nil {
			t.Fatalf("next turn %d of a run at turns 0..1 of 4 must be rejected", next)
		}
	}
}

// TestReplayTooManyCalls: a run whose turn the gate has already passed
// fails, and none of its steps runs.
func TestReplayTooManyCalls(t *testing.T) {
	ctx := context.Background()
	gate := NewLocalGate()
	if err := gate.Advance(ctx, 2, -1); err != nil {
		t.Fatal(err)
	}
	if err := RunTurns(ctx, gate, 1, 1, 4, false, -1, noStep(t)); err == nil {
		t.Fatal("a run at a passed turn must fail")
	}
}

// TestReplayPropagatesCallError: a step's error comes back as it is, and
// the run does not hand the schedule on.
func TestReplayPropagatesCallError(t *testing.T) {
	gate := NewLocalGate()
	wantErr := fmt.Errorf("boom")
	steps := 0
	err := RunTurns(context.Background(), gate, 0, 2, 4, false, -1, func(k int) error {
		steps++
		if k == 1 {
			return wantErr
		}
		return nil
	})
	if err != wantErr || steps != 2 {
		t.Fatalf("err = %v after %d steps, want boom after 2", err, steps)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.turn != 0 {
		t.Fatalf("a failed run advanced the gate to turn %d", gate.turn)
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
