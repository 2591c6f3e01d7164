package bugs

import (
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/roshi"
)

func roshiCluster(flags roshi.Flags) func() (*replica.Cluster, error) {
	return func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": roshi.New(flags),
			"B": roshi.New(flags),
			"C": roshi.New(flags),
		}), nil
	}
}

// roshi1 is Roshi issue #18, "incorrect deleted field in response": a
// tombstone that reaches a replica before the corresponding insert is
// recorded with deleted=false, surfacing the member as live at a score
// only a delete ever carried. 9 events.
//
// Reported manifestation: the tombstone sync (3,4) overtakes the insert
// sync (2) to replica C, whose selectAll then lists m@9 as live.
func roshi1() *Benchmark {
	newCluster := roshiCluster(roshi.Flags{BugDeletedField: true})
	return &Benchmark{
		Name: "Roshi-1", Subject: "Roshi", Issue: 18, Events: 9,
		Status: "closed", Reason: "misconception",
		FixedCluster: roshiCluster(roshi.Flags{}),
		Trigger:      ids(0, 1, 3, 4, 2, 5, 6, 7, 8),
		sig:          fullSig,
		Build: func() (runner.Scenario, error) {
			return buildScenario("Roshi-1", newCluster, func(rec *runner.Recorder) {
				rec.Update("A", "insert", "k", "m", "5") // 0
				rec.Sync("A", "B")                       // 1
				rec.Sync("A", "C")                       // 2
				rec.Update("B", "delete", "k", "m", "9") // 3
				rec.Sync("B", "C")                       // 4
				rec.Sync("B", "A")                       // 5
				rec.Update("C", "insert", "k", "w", "4") // 6
				rec.Sync("C", "A")                       // 7
				rec.Observe("C", "selectAll", "k")       // 8
			}, prune.Config{
				Grouping:       groups(ids(0, 1), ids(3, 4), ids(6, 7)),
				TestedReplicas: []event.ReplicaID{"C"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(3, 6)}, // delete(m) and insert(w) commute
				},
			}, nil)
		},
	}
}

// roshi2 is Roshi issue #11, "CRDT semantics violated if same timestamp":
// equal-score conflicts resolve by arrival order, so replicas settle on
// different winners depending on the interleaving. 10 events.
//
// Reported manifestation: B's delete (6,7) executes before A's re-add
// (4,5); opposite arrival orders at A and B leave the member live after
// anti-entropy, where the recorded order leaves it deleted.
func roshi2() *Benchmark {
	newCluster := roshiCluster(roshi.Flags{BugEqualTimestampArrival: true})
	return &Benchmark{
		Name: "Roshi-2", Subject: "Roshi", Issue: 11, Events: 10,
		Status: "closed", Reason: "RDL issue",
		FixedCluster: roshiCluster(roshi.Flags{}),
		Trigger:      ids(0, 1, 2, 3, 6, 7, 4, 5, 8, 9),
		sig:          fullSig,
		Build: func() (runner.Scenario, error) {
			return buildScenario("Roshi-2", newCluster, func(rec *runner.Recorder) {
				rec.Update("B", "insert", "k", "m", "3") // 0
				rec.Sync("B", "A")                       // 1
				rec.Update("C", "insert", "k", "w", "1") // 2
				rec.Sync("C", "A")                       // 3
				rec.Update("A", "insert", "k", "m", "5") // 4
				rec.Sync("A", "B")                       // 5
				rec.Update("B", "delete", "k", "m", "5") // 6
				rec.Sync("B", "A")                       // 7
				rec.Observe("A", "selectAll", "k")       // 8
				rec.Observe("B", "selectAll", "k")       // 9
			}, prune.Config{
				Grouping:       groups(ids(0, 1), ids(2, 3), ids(4, 5)),
				TestedReplicas: []event.ReplicaID{"A"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(0, 2)}, // inserts of distinct members commute
				},
			}, runner.AntiEntropy(2))
		},
	}
}

// roshi3 is Roshi issue #40, "select and map order": equal-score members
// come back in internal arrival order instead of a canonical order, so
// reads depend on the interleaving. 21 events.
//
// Reported manifestation: the fourth and fifth insert rounds swap, so the
// selects at every replica list a2 after b2 — an order the canonical
// comparator never produces.
func roshi3() *Benchmark {
	newCluster := roshiCluster(roshi.Flags{BugMapOrder: true})
	return &Benchmark{
		Name: "Roshi-3", Subject: "Roshi", Issue: 40, Events: 21,
		Status: "closed", Reason: "misconception",
		FixedCluster: roshiCluster(roshi.Flags{}),
		Trigger:      ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 9, 10, 11, 15, 16, 17, 18, 19, 20),
		sig:          fullSig,
		Build: func() (runner.Scenario, error) {
			return buildScenario("Roshi-3", newCluster, func(rec *runner.Recorder) {
				rec.Update("A", "insert", "k", "a1", "5") // 0
				rec.Sync("A", "B")                        // 1
				rec.Sync("A", "C")                        // 2
				rec.Update("B", "insert", "k", "b1", "5") // 3
				rec.Sync("B", "A")                        // 4
				rec.Sync("B", "C")                        // 5
				rec.Update("C", "insert", "k", "c1", "5") // 6
				rec.Sync("C", "A")                        // 7
				rec.Sync("C", "B")                        // 8
				rec.Update("A", "insert", "k", "a2", "5") // 9
				rec.Sync("A", "B")                        // 10
				rec.Sync("A", "C")                        // 11
				rec.Update("B", "insert", "k", "b2", "5") // 12
				rec.Sync("B", "A")                        // 13
				rec.Sync("B", "C")                        // 14
				rec.Update("C", "insert", "k", "c2", "5") // 15
				rec.Sync("C", "A")                        // 16
				rec.Sync("C", "B")                        // 17
				rec.Observe("A", "select", "k")           // 18
				rec.Observe("B", "select", "k")           // 19
				rec.Observe("C", "select", "k")           // 20
			}, prune.Config{
				Grouping: groups(ids(0, 1, 2), ids(3, 4, 5), ids(6, 7, 8),
					ids(9, 10, 11), ids(12, 13, 14), ids(15, 16, 17)),
				TestedReplicas: []event.ReplicaID{"A"},
			}, nil)
		},
	}
}
