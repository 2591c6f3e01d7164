package proxy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/lockserver"
)

// runCase is one random schedule: a log whose events are dealt to replicas
// at random, a random permutation of it, and that permutation cut into
// maximal runs of one replica's consecutive turns.
type runCase struct {
	log      *event.Log
	order    []event.ID
	replicas []event.ReplicaID
	runs     []testRun // in schedule order
}

type testRun struct {
	rep      event.ReplicaID
	first, n int
}

func newRunCase(t *testing.T, rng *rand.Rand) runCase {
	t.Helper()
	events := make([]event.Event, 2+rng.Intn(9))
	nrep := 1 + rng.Intn(4)
	for i := range events {
		rep := event.ReplicaID(string(rune('A' + rng.Intn(nrep))))
		events[i] = event.Event{Kind: event.Update, Replica: rep, Op: "op" + strconv.Itoa(i)}
	}
	log, err := event.NewLog(events)
	if err != nil {
		t.Fatal(err)
	}
	order := log.IDs()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return caseOf(log, order)
}

// caseOf cuts order, a permutation of log, into its runs.
func caseOf(log *event.Log, order []event.ID) runCase {
	c := runCase{log: log, order: order, replicas: log.Replicas()}
	for pos, id := range order {
		rep := log.Event(id).Replica
		if last := len(c.runs) - 1; last >= 0 && c.runs[last].rep == rep {
			c.runs[last].n++
		} else {
			c.runs = append(c.runs, testRun{rep: rep, first: pos, n: 1})
		}
	}
	return c
}

// gateKind is one TurnGate implementation under test: fresh mints the
// gates of a fresh schedule (turn 0), one per replica, and a reader of the
// schedule's current turn.
type gateKind struct {
	name  string
	fresh func(t *testing.T, replicas []event.ReplicaID) (gates map[event.ReplicaID]TurnGate, turn func() int)
}

func gateKinds(t *testing.T) []gateKind {
	store := lockserver.NewStore()
	srv := lockserver.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewDistPool(addr, "runs", 0, time.Second)
	t.Cleanup(func() { _ = pool.Close(); _ = srv.Close() })
	return []gateKind{
		{"LocalGate", func(t *testing.T, replicas []event.ReplicaID) (map[event.ReplicaID]TurnGate, func() int) {
			g := NewLocalGate()
			gates := make(map[event.ReplicaID]TurnGate)
			for _, rep := range replicas {
				gates[rep] = g
			}
			return gates, func() int {
				g.mu.Lock()
				defer g.mu.Unlock()
				return g.turn
			}
		}},
		{"DistGate", func(t *testing.T, replicas []event.ReplicaID) (map[event.ReplicaID]TurnGate, func() int) {
			sess := pool.Session()
			t.Cleanup(func() { _ = sess.Close() })
			gates := make(map[event.ReplicaID]TurnGate)
			for _, rep := range replicas {
				g, err := sess.Gate(rep)
				if err != nil {
					t.Fatal(err)
				}
				gates[rep] = g
			}
			return gates, func() int {
				v, _ := store.Get(sess.Key() + ":turn")
				n, _ := strconv.Atoi(v) // absent = 0
				return n
			}
		}},
	}
}

// stop is where a replica's walk ended with an error: the run whose
// RunTurns returned it.
type stop struct {
	rep event.ReplicaID
	run testRun
	err error
}

// play drives the case on gates the way the live runner's gated schedule
// does: one goroutine per replica walks the replica's runs in schedule
// order and hands each to RunTurns, naming its next run's first turn in
// each hand-off, so it waits explicitly for its first run only and holds
// the schedule at the start of every later one. step runs one position.
// A replica that fails cancels ctx, and while any replica is still
// walking, a dead ctx interrupts every gate that can be interrupted, so
// no wait parked on the lock server outlives the call. It returns the
// replicas that failed.
func (c runCase) play(t *testing.T, ctx context.Context, cancel context.CancelFunc, gates map[event.ReplicaID]TurnGate, step func(pos int) error) map[event.ReplicaID]stop {
	t.Helper()
	results := make(chan stop, len(c.replicas))
	for _, rep := range c.replicas {
		go func() {
			var mine []testRun
			for _, run := range c.runs {
				if run.rep == rep {
					mine = append(mine, run)
				}
			}
			for k, run := range mine {
				next := -1
				if k+1 < len(mine) {
					next = mine[k+1].first
				}
				err := RunTurns(ctx, gates[rep], run.first, run.n, len(c.order), k > 0, next, func(k int) error {
					return step(run.first + k)
				})
				if err != nil {
					cancel()
					results <- stop{rep, run, err}
					return
				}
			}
			results <- stop{rep: rep}
		}()
	}
	stops := make(map[event.ReplicaID]stop)
	done := ctx.Done()
	for pending := len(c.replicas); pending > 0; {
		select {
		case s := <-results:
			pending--
			if s.err != nil {
				stops[s.rep] = s
			}
		case <-done:
			for _, g := range gates {
				if i, ok := g.(interface{ Interrupt() }); ok {
					i.Interrupt()
				}
			}
			done = nil
		}
	}
	return stops
}

// TestRunCoalescingProperty draws random replica assignments and schedules
// and checks, on both gates, what coalescing a replica's consecutive turns
// into one critical section, and granting its next run by the hand-off
// that ends its last one, must preserve:
//
//   - steps execute in schedule order, and the schedule ends at the last
//     run's first turn: the run that ends it hands nothing on;
//   - a step error at any position leaves the schedule at the first turn of
//     the run the position is in, no later step runs, and every other
//     replica's wait ends with the cancelled context;
//   - a context cancelled by a step is observed before the run's next step,
//     with the schedule again left at the run's first turn.
func TestRunCoalescingProperty(t *testing.T) {
	const cases = 200
	rng := rand.New(rand.NewSource(21))
	kinds := gateKinds(t)
	for n := 0; n < cases; n++ {
		c := newRunCase(t, rng)
		for _, kind := range kinds {
			name := fmt.Sprintf("%s case %d (order %v, runs %v)", kind.name, n, c.order, c.runs)

			// No failure: schedule order.
			gates, turn := kind.fresh(t, c.replicas)
			var mu sync.Mutex // a lock-server gate's ordering is invisible to the race detector
			var executed []int
			ctx, cancel := context.WithCancel(context.Background())
			stops := c.play(t, ctx, cancel, gates, func(pos int) error {
				mu.Lock()
				defer mu.Unlock()
				executed = append(executed, pos)
				return nil
			})
			cancel()
			if len(stops) != 0 {
				t.Fatalf("%s: replicas failed: %v", name, stops)
			}
			if !slices.IsSorted(executed) || len(executed) != len(c.order) {
				t.Fatalf("%s: executed positions %v; want 0..%d in order", name, executed, len(c.order)-1)
			}
			if got, last := turn(), c.runs[len(c.runs)-1].first; got != last {
				t.Fatalf("%s: schedule ended at turn %d; want the last run's first turn %d", name, got, last)
			}

			// At every position: a step error there, and a cancellation by
			// the step before it when that step is in the same run (otherwise
			// the dead context is met by a later wait, which is WaitTurn's
			// business).
			for failAt := range c.order {
				var target testRun
				for _, run := range c.runs {
					if run.first <= failAt && failAt < run.first+run.n {
						target = run
					}
				}
				boom := errors.New("boom")
				for _, cancelling := range []bool{false, true} {
					if cancelling && failAt == target.first {
						continue
					}
					want := map[bool]error{false: boom, true: context.Canceled}[cancelling]
					gates, turn := kind.fresh(t, c.replicas)
					ctx, cancel := context.WithCancel(context.Background())
					ran := 0
					stops := c.play(t, ctx, cancel, gates, func(pos int) error {
						mu.Lock()
						defer mu.Unlock()
						if !cancelling && pos == failAt {
							return boom
						}
						ran++
						if cancelling && pos+1 == failAt {
							cancel()
						}
						return nil
					})
					cancel()
					if s := stops[target.rep]; !errors.Is(s.err, want) || s.run != target {
						t.Fatalf("%s (cancelling %v): replica %s stopped in run %v with %v; want run %v with %v",
							name, cancelling, target.rep, s.run, s.err, target, want)
					}
					for rep, s := range stops {
						if rep != target.rep && !errors.Is(s.err, context.Canceled) {
							t.Fatalf("%s (cancelling %v): replica %s stopped in run %v with %v; want its wait cancelled",
								name, cancelling, rep, s.run, s.err)
						}
					}
					if ran != failAt {
						t.Fatalf("%s (cancelling %v): %d steps ran; want exactly the %d before position %d", name, cancelling, ran, failAt, failAt)
					}
					if got := turn(); got != target.first {
						t.Fatalf("%s (cancelling %v): schedule left at turn %d; want the run's first turn %d", name, cancelling, got, target.first)
					}
				}
			}
		}
	}
}
