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

// TestLiveLockRequestBudget pins the gated schedule's lock protocol by
// counting what a session's clients put on the wire: per attempt, one
// WAITGE and one INCRBY per run of a replica's consecutive events — the
// wait names the run's first turn, the increment its length — plus the one
// DEL that drops the session's counter. Nothing is sent inside a run, and
// nothing else at all: 2 × runs + 1 requests.
//
// A WAITGE parks at most 100 ms on the server and is re-issued after that,
// so on a stalled host a wait can repeat; repeats name the same turn and
// are counted once.
func TestLiveLockRequestBudget(t *testing.T) {
	srv := lockserver.NewServer(lockserver.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := proxy.NewDistPool(addr, "budget", 0, time.Second)
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
	var sess *proxy.DistSession
	s := townReportScenario(t)
	x, err := newExecutor(s, Config{LiveGates: func(int) (SessionFactory, error) {
		return func() (LiveSession, error) { sess = pool.Session(); return sess, nil }, nil
	}}, 0, telemetryOff, nil, true, defaultPrefixSnapshotEvery)
	if err != nil {
		t.Fatal(err)
	}

	for n, il := range townReportOrders {
		reqs = nil
		if _, err := x.attempt(context.Background(), workItem{index: n + 1, il: il, pivot: -1}); err != nil {
			t.Fatal(err)
		}
		runs := runsOf(s.Log, il)
		var waits, lengths []int
		for _, run := range runs {
			waits = append(waits, run.first)
			lengths = append(lengths, run.n)
		}
		turnKey := sess.Key() + ":turn"
		var waited, advanced []int
		for i, req := range reqs {
			if len(req) < 2 || req[1] != turnKey {
				t.Fatalf("order %v: request %q is not on the session's counter %s", il, req, turnKey)
			}
			switch arg := func(k int) int { v, _ := strconv.Atoi(req[k]); return v }; req[0] {
			case "WAITGE":
				if !slices.Contains(waited, arg(2)) {
					waited = append(waited, arg(2))
				}
			case "INCRBY":
				advanced = append(advanced, arg(2))
			case "DEL":
				if i != len(reqs)-1 {
					t.Fatalf("order %v: DEL is request %d of %d; want it last", il, i+1, len(reqs))
				}
			default:
				t.Fatalf("order %v: unexpected request %q", il, req)
			}
		}
		// Hand-offs are serial, so the increments arrive in schedule order;
		// the waits are issued by concurrent replicas in any order.
		slices.Sort(waited)
		if !slices.Equal(waited, waits) || !slices.Equal(advanced, lengths) {
			t.Fatalf("order %v (runs %v): waited for turns %v and advanced by %v; want %v and %v",
				il, runs, waited, advanced, waits, lengths)
		}
		if got, want := len(waited)+len(advanced)+1, 2*len(runs)+1; got != want || reqs[len(reqs)-1][0] != "DEL" {
			t.Fatalf("order %v: %d requests ending in %q; want 2 x %d runs + 1 DEL", il, got, reqs[len(reqs)-1], len(runs))
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
