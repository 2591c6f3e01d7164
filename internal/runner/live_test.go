package runner

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/prune"
)

// TestLiveMatchesSequential replays every pruned interleaving of the
// motivating example both sequentially (ExecuteOnce) and live (one
// goroutine per replica, LocalGate ordering) and requires identical
// outcomes — the property that makes the fast sequential executor a valid
// stand-in for the deployment-shaped path.
func TestLiveMatchesSequential(t *testing.T) {
	s := townReportScenario(t)
	ex, err := prune.NewExplorer(s.Log, s.Pruning)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		il, ok := ex.Next()
		if !ok {
			break
		}
		count++
		seq, err := ExecuteOnce(s, il)
		if err != nil {
			t.Fatal(err)
		}
		gate := proxy.NewLocalGate()
		live, err := ExecuteLive(s, il, func(event.ReplicaID) proxy.TurnGate { return gate })
		if err != nil {
			t.Fatalf("interleaving %s: %v", il.Key(), err)
		}
		sortedSeq := append([]event.ID(nil), seq.FailedOps...)
		sort.Slice(sortedSeq, func(i, j int) bool { return sortedSeq[i] < sortedSeq[j] })
		if !reflect.DeepEqual(live.Fingerprints, seq.Fingerprints) {
			t.Fatalf("interleaving %s: fingerprints diverge: %v vs %v", il.Key(), live.Fingerprints, seq.Fingerprints)
		}
		if !reflect.DeepEqual(live.Observations, seq.Observations) {
			t.Fatalf("interleaving %s: observations diverge: %v vs %v", il.Key(), live.Observations, seq.Observations)
		}
		if !reflect.DeepEqual(live.FailedOps, sortedSeq) && !(len(live.FailedOps) == 0 && len(sortedSeq) == 0) {
			t.Fatalf("interleaving %s: failed ops diverge: %v vs %v", il.Key(), live.FailedOps, sortedSeq)
		}
	}
	if count != 19 {
		t.Fatalf("explored %d interleavings, want 19", count)
	}
}

// TestLiveOverDistributedLock replays one interleaving with per-replica
// lock-server sequencers coordinating through a real TCP lock server — the
// full §4.3 pipeline: gated replica runs + shared turn counter.
func TestLiveOverDistributedLock(t *testing.T) {
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	s := townReportScenario(t)
	// The bug-triggering order: transmit before the fix syncs.
	il := interleave.Interleaving{0, 1, 2, 3, 6, 4, 5}

	coord, err := lockserver.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := lockserver.NewSequencer(coord, "live:turn", 1).Reset(); err != nil {
		t.Fatal(err)
	}

	var clients []*lockserver.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	live, err := ExecuteLive(s, il, func(rep event.ReplicaID) proxy.TurnGate {
		c, err := lockserver.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		return lockserver.NewSequencer(c, "live:turn", time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}

	seq, err := ExecuteOnce(s, il)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Fingerprints, seq.Fingerprints) {
		t.Fatalf("distributed live replay diverged: %v vs %v", live.Fingerprints, seq.Fingerprints)
	}
	// This order ships both issues to the municipality — the §2.3 bug.
	if got := live.Fingerprints["M"]; got != "otb,ph" {
		t.Fatalf("municipality state = %q, want the buggy otb,ph", got)
	}
}

// parkGate is a turn gate whose waits ignore their context, like a read
// parked on a lock-server socket: only Interrupt releases them. With down
// set, every wait fails at once.
type parkGate struct {
	down     bool
	released chan struct{}
	once     sync.Once
}

func (g *parkGate) WaitTurn(ctx context.Context, _ int) error {
	if g.down {
		return errors.New("gate down")
	}
	<-g.released
	return ctx.Err()
}

func (g *parkGate) Advance(ctx context.Context, _, next int) error {
	if next < 0 {
		return nil
	}
	return g.WaitTurn(ctx, next)
}

func (g *parkGate) Interrupt() { g.once.Do(func() { close(g.released) }) }

// TestLiveFailureInterruptsParkedWaits: when one replica's gate fails, the
// attempt interrupts the other replicas' parked waits and returns at once
// — it neither waits for them to notice the dead context by themselves
// nor hangs when they never would.
func TestLiveFailureInterruptsParkedWaits(t *testing.T) {
	s := townReportScenario(t)
	var first event.ReplicaID
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteLive(s, interleave.Interleaving(s.Log.IDs()), func(rep event.ReplicaID) proxy.TurnGate {
			if first == "" {
				first = rep
			}
			return &parkGate{down: rep == first, released: make(chan struct{})}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "gate down") {
			t.Fatalf("live replay with a failed gate = %v; want the gate's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live replay still waiting on parked gates after one failed")
	}
}
