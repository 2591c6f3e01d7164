package runner

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/lockserver"
	"github.com/er-pi/erpi/internal/proxy"
	"github.com/er-pi/erpi/internal/telemetry"
)

// townReportOrders are fixed interleavings of townReportScenario with
// different run structures: the recorded order, the §2.3 bug order, all of
// B before all of A, and one that alternates replicas as often as it can.
var townReportOrders = []interleave.Interleaving{
	{0, 1, 2, 3, 4, 5, 6},
	{0, 1, 2, 3, 6, 4, 5},
	{2, 3, 4, 5, 0, 1, 6},
	{0, 2, 1, 4, 3, 6, 5},
}

type turnRun struct{ first, n int }

// runsOf is the reference cut of an interleaving into maximal runs of one
// replica's consecutive positions, in schedule order.
func runsOf(log *event.Log, il interleave.Interleaving) (runs []turnRun) {
	for pos, id := range il {
		if last := len(runs) - 1; last >= 0 && log.Event(il[pos-1]).Replica == log.Event(id).Replica {
			runs[last].n++
		} else {
			runs = append(runs, turnRun{first: pos, n: 1})
		}
	}
	return runs
}

// lockExecutor is a live executor over townReportScenario whose sessions
// come from pool, and a reader of the last session minted.
func lockExecutor(t *testing.T, pool *proxy.DistPool) (*Executor, func() *proxy.DistSession) {
	t.Helper()
	var sess *proxy.DistSession
	x, err := newExecutor(townReportScenario(t), Config{LiveGates: func(int) (SessionFactory, error) {
		return func() (LiveSession, error) { sess = pool.Session(); return sess, nil }, nil
	}}, 0, telemetryOff, nil, true, defaultPrefixSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	return x, func() *proxy.DistSession { return sess }
}

// startLockServer serves a fresh store on a free loopback port until the
// test ends.
func startLockServer(t *testing.T) string {
	t.Helper()
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}

// TestLiveLockRequestBudget pins the gated schedule's lock protocol by
// counting what a session's clients put on the wire. Per attempt each
// replica but the one that owns turn 0 sends one WAITGE, naming its first
// run's turn (a fresh session's counter reads 0, so turn 0 needs no
// request); each run but the schedule's last ends in one hand-off — WAITGE
// carrying the run's length as its delta and the same replica's next run
// as its target, or a plain INCRBY after the replica's last run — and the
// one DEL that drops the session's counter comes last. Nothing is sent
// inside a run, and nothing else at all: runs + replicas − 1 requests.
//
// A WAITGE parks at most 100 ms on the server and is re-issued after
// that, without a delta, so on a host stalled that long a wait can repeat:
// such an attempt may add plain WAITGEs naming its hand-offs' targets.
func TestLiveLockRequestBudget(t *testing.T) {
	pool := proxy.NewDistPool(startLockServer(t), "budget", 0, time.Second)
	defer pool.Close()
	var (
		mu   sync.Mutex
		reqs [][]string
	)
	pool.SetFaultHook(func(op string, args []string) error {
		mu.Lock()
		defer mu.Unlock()
		reqs = append(reqs, append([]string{op}, args...))
		return nil
	})
	x, sess := lockExecutor(t, pool)
	log := x.log

	for n, il := range townReportOrders {
		reqs = nil
		start := time.Now()
		if _, err := x.attempt(context.Background(), workItem{index: n + 1, il: il, pivot: -1}); err != nil {
			t.Fatal(err)
		}
		stalled := time.Since(start) >= 100*time.Millisecond
		runs := runsOf(log, il)
		// Per run in schedule order but the last, its hand-off: the run's
		// length and the first turn of the replica's next run, -1 after its
		// last. firsts are the first runs waited for: all but turn 0's.
		var firsts []int
		var want [][2]int
		for k, run := range runs {
			rep := log.Event(il[run.first]).Replica
			if run.first > 0 && !slices.ContainsFunc(runs[:k], func(r turnRun) bool { return log.Event(il[r.first]).Replica == rep }) {
				firsts = append(firsts, run.first)
			}
			if k == len(runs)-1 {
				break // the run that ends the schedule hands nothing on
			}
			next := -1
			for _, later := range runs[k+1:] {
				if log.Event(il[later.first]).Replica == rep {
					next = later.first
					break
				}
			}
			want = append(want, [2]int{run.n, next})
		}
		turnKey := sess().Key() + ":turn"
		var waited []int
		var handoffs [][2]int
		for i, req := range reqs {
			if len(req) < 2 || req[1] != turnKey {
				t.Fatalf("order %v: request %q is not on the session's counter %s", il, req, turnKey)
			}
			arg := func(k int) int { v, _ := strconv.Atoi(req[k]); return v }
			switch {
			case req[0] == "WAITGE" && len(req) == 4:
				if !slices.Contains(waited, arg(2)) {
					waited = append(waited, arg(2))
				}
			case req[0] == "WAITGE" && len(req) == 5:
				handoffs = append(handoffs, [2]int{arg(4), arg(2)})
			case req[0] == "INCRBY":
				handoffs = append(handoffs, [2]int{arg(2), -1})
			case req[0] == "DEL" && i == len(reqs)-1:
			default:
				t.Fatalf("order %v: unexpected request %d of %d: %q", il, i+1, len(reqs), req)
			}
		}
		// Hand-offs are serial, so they arrive in schedule order; the first
		// waits are issued by concurrent replicas in any order.
		if !slices.Equal(handoffs, want) {
			t.Fatalf("order %v (runs %v): hand-offs (delta, target) %v; want %v", il, runs, handoffs, want)
		}
		slices.Sort(firsts)
		slices.Sort(waited)
		repeats := slices.DeleteFunc(slices.Clone(waited), func(turn int) bool { return slices.Contains(firsts, turn) })
		if len(waited)-len(repeats) != len(firsts) || (len(repeats) > 0 && !stalled) ||
			slices.ContainsFunc(repeats, func(turn int) bool {
				return !slices.ContainsFunc(want, func(h [2]int) bool { return h[1] == turn })
			}) {
			t.Fatalf("order %v (runs %v): plain waits for turns %v; want each replica's first run %v", il, runs, waited, firsts)
		}
		if got, budget := len(reqs), len(runs)+len(log.Replicas())-1; (got != budget && !stalled) || reqs[len(reqs)-1][0] != "DEL" {
			t.Fatalf("order %v: %d requests ending in %q; want %d runs + %d replicas - 1, the DEL last", il, got, reqs[len(reqs)-1], len(runs), len(log.Replicas()))
		}
	}
}

// TestLiveTurnWaitCountsEveryRun: the turn-wait histogram sees every run
// after the schedule's first granted exactly once — a replica's first run
// by its WaitTurn, each later one by the wait inside the hand-off that
// ended the replica's previous run — so it counts the attempt's runs, not
// only its first waits. The run at turn 0 is taken without a wait, so
// nothing observes it.
func TestLiveTurnWaitCountsEveryRun(t *testing.T) {
	pool := proxy.NewDistPool(startLockServer(t), "turnwait", 0, time.Second)
	defer pool.Close()
	h := telemetry.New().Histogram("live.turn_wait_ns")
	pool.SetTurnWaitMetrics(h)
	x, _ := lockExecutor(t, pool)
	for n, il := range townReportOrders {
		before := h.Count()
		if _, err := x.attempt(context.Background(), workItem{index: n + 1, il: il, pivot: -1}); err != nil {
			t.Fatal(err)
		}
		if got, want := h.Count()-before, int64(len(runsOf(x.log, il))-1); got != want {
			t.Fatalf("order %v: %d turn waits observed; want one per run after the first, %d", il, got, want)
		}
	}
}

// TestLiveHandoffTelemetry: live.events counts applied events,
// live.handoffs the turns taken to apply them, and /progress shows both.
func TestLiveHandoffTelemetry(t *testing.T) {
	s := townReportScenario(t)
	reg := telemetry.New()
	events, handoffs := 0, 0
	for _, il := range townReportOrders {
		gate := proxy.NewLocalGate()
		if _, err := ExecuteLiveContext(context.Background(), s, il,
			func(event.ReplicaID) proxy.TurnGate { return gate }, nil, reg); err != nil {
			t.Fatal(err)
		}
		events += len(il)
		handoffs += len(runsOf(s.Log, il))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["live.events"]; got != int64(events) {
		t.Fatalf("live.events = %d; want %d", got, events)
	}
	if got := snap.Counters["live.handoffs"]; got != int64(handoffs) || handoffs >= events {
		t.Fatalf("live.handoffs = %d; want %d, fewer than the %d events", got, handoffs, events)
	}
	if p := reg.Progress().Snapshot(); p.LiveEvents != int64(events) || p.LiveHandoffs != int64(handoffs) {
		t.Fatalf("/progress shows %d events over %d hand-offs; want %d over %d", p.LiveEvents, p.LiveHandoffs, events, handoffs)
	}
}
