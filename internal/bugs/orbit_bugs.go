package bugs

import (
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/orbit"
)

// orbitCluster builds three peers; identities may be overridden so that
// two devices can share one identity (the issue-#513 setup).
func orbitCluster(flags orbit.Flags, identities map[event.ReplicaID]string) func() (*replica.Cluster, error) {
	return func() (*replica.Cluster, error) {
		states := make(map[event.ReplicaID]replica.State, 3)
		for _, rep := range []event.ReplicaID{"A", "B", "C"} {
			id := string(rep)
			if identities != nil {
				if override, ok := identities[rep]; ok {
					id = override
				}
			}
			states[rep] = orbit.New(id, flags)
		}
		return replica.NewCluster(states), nil
	}
}

// orbit1 is OrbitDB issue #513, "ordering tie breaker can cause undefined
// ordering with the same identity": two devices sharing one identity
// append entries with equal clocks; the non-total comparator orders reads
// by arrival. 12 events.
//
// Reported manifestation: B's second entry (and its sync to C) overtakes
// A's, so C reads p4 before p3 where both carry clock 2 and identity W.
func orbit1() *Benchmark {
	shared := map[event.ReplicaID]string{"A": "W", "B": "W"}
	newCluster := orbitCluster(orbit.Flags{BugTieBreaker: true}, shared)
	return &Benchmark{
		Name: "OrbitDB-1", Subject: "OrbitDB", Issue: 513, Events: 12,
		Status: "open", Reason: "—",
		FixedCluster: orbitCluster(orbit.Flags{}, shared),
		Trigger:      ids(0, 1, 2, 3, 4, 5, 8, 9, 6, 7, 10, 11),
		sig:          obsSig(10),
		Build: func() (runner.Scenario, error) {
			return buildScenario("OrbitDB-1", newCluster, func(rec *runner.Recorder) {
				rec.Update("A", "append", "p1") // 0  clock 1 @ identity W
				rec.Sync("A", "C")              // 1
				rec.Update("B", "append", "p2") // 2  clock 1 @ identity W: tie
				rec.Sync("B", "C")              // 3
				rec.Sync("A", "B")              // 4
				rec.Sync("B", "A")              // 5
				rec.Update("A", "append", "p3") // 6  clock 2 @ W
				rec.Sync("A", "C")              // 7
				rec.Update("B", "append", "p4") // 8  clock 2 @ W: tie
				rec.Sync("B", "C")              // 9
				rec.Observe("C", "read")        // 10
				rec.Observe("A", "read")        // 11
			}, prune.Config{
				Grouping:       groups(ids(0, 1), ids(2, 3), ids(6, 7), ids(8, 9)),
				TestedReplicas: []event.ReplicaID{"C"},
			}, nil)
		},
	}
}

// orbit2 is OrbitDB issue #512, "Lamport clock can be set far into future
// making db progress halt": an unguarded join adopts a forged far-future
// clock. 8 events.
//
// Reported manifestation: the infection chain (4,5,6) overtakes C's clock
// check (3), which then reports the far-future clock.
func orbit2() *Benchmark {
	newCluster := orbitCluster(orbit.Flags{BugFutureClock: true}, nil)
	const limit = "1000000"
	return &Benchmark{
		Name: "OrbitDB-2", Subject: "OrbitDB", Issue: 512, Events: 8,
		Status: "open", Reason: "—",
		FixedCluster: orbitCluster(orbit.Flags{}, nil),
		Trigger:      ids(0, 1, 2, 4, 5, 6, 3, 7),
		sig:          obsSig(1, 3),
		Build: func() (runner.Scenario, error) {
			return buildScenario("OrbitDB-2", newCluster, func(rec *runner.Recorder) {
				rec.Update("B", "append", "b1")                          // 0
				rec.Observe("B", "clockBelow", limit)                    // 1
				rec.Update("C", "append", "c1")                          // 2
				rec.Observe("C", "clockBelow", limit)                    // 3
				rec.Update("A", "appendFuture", "evil", "1099511627776") // 4: 2^40
				rec.Sync("A", "B")                                       // 5
				rec.Sync("B", "C")                                       // 6
				rec.Sync("A", "C")                                       // 7
			}, prune.Config{
				Grouping:       groups(ids(4, 5)),
				TestedReplicas: []event.ReplicaID{"C"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(0, 2), NonInterfering: ids(1, 3)},
				},
			}, nil)
		},
	}
}

// orbit3 is OrbitDB issue #1153, "could not append entry although write
// access is granted": a join refreshes the live heads but not the append
// path's cached heads, so the next append is rejected. 15 events.
//
// Reported manifestation: C's late join into A (13, carrying entries A has
// never seen) lands between A's two appends, rejecting the second one.
func orbit3() *Benchmark {
	newCluster := orbitCluster(orbit.Flags{BugStaleHeadCache: true}, nil)
	return &Benchmark{
		Name: "OrbitDB-3", Subject: "OrbitDB", Issue: 1153, Events: 15,
		Status: "closed", Reason: "misuse",
		FixedCluster: orbitCluster(orbit.Flags{}, nil),
		Trigger:      ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 9, 10, 11, 12, 14),
		// The report says: "my second append was rejected, and the final
		// read shows everyone's entries except it" — the rejected-op set
		// plus the content SET of the final read (order-insensitive, as a
		// user would describe it).
		sig: func(w *sigBuf, o *runner.Outcome) {
			failedPart(w, o)
			w.sep('|')
			contentSet(w, o, 12)
			w.sep('|')
			contentSet(w, o, 14)
		},
		Build: func() (runner.Scenario, error) {
			return buildScenario("OrbitDB-3", newCluster, func(rec *runner.Recorder) {
				rec.Update("B", "append", "b1") // 0
				rec.Update("B", "append", "b2") // 1
				rec.Sync("B", "A")              // 2
				rec.Sync("B", "C")              // 3
				rec.Observe("B", "read")        // 4
				rec.Update("C", "append", "c1") // 5 (never synced to A until 13)
				rec.Sync("C", "B")              // 6
				rec.Observe("C", "read")        // 7
				rec.Update("A", "append", "a1") // 8
				rec.Update("A", "append", "a2") // 9
				rec.Sync("A", "B")              // 10
				rec.Sync("A", "C")              // 11
				rec.Observe("A", "read")        // 12
				rec.Sync("C", "A")              // 13 late join carrying c1
				rec.Observe("A", "read")        // 14
			}, prune.Config{
				Grouping:       groups(ids(0, 1, 2, 3), ids(5, 6, 7), ids(10, 11, 12)),
				TestedReplicas: []event.ReplicaID{"A"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(0, 5)}, // appends at distinct peers commute
				},
			}, nil)
		},
	}
}

// orbit4 is OrbitDB issue #583, "head hash didn't match the contents":
// a sync that overtakes the seal of a fresh append ships an entry whose
// payload was annotated after hashing; the receiver rejects the join.
// 18 events.
//
// Reported manifestation: B's sync to A (6) overtakes B's seal (5), so A
// rejects the corrupt b1 and its reads lack it.
func orbit4() *Benchmark {
	newCluster := orbitCluster(orbit.Flags{BugMutateAfterHash: true}, nil)
	return &Benchmark{
		Name: "OrbitDB-4", Subject: "OrbitDB", Issue: 583, Events: 18,
		Status: "closed", Reason: "misconception",
		FixedCluster: orbitCluster(orbit.Flags{}, nil),
		Trigger:      ids(0, 1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17),
		sig:          fullSig,
		Build: func() (runner.Scenario, error) {
			return buildScenario("OrbitDB-4", newCluster, func(rec *runner.Recorder) {
				rec.Update("A", "append", "a1") // 0
				rec.Update("A", "seal")         // 1
				rec.Sync("A", "B")              // 2
				rec.Sync("A", "C")              // 3
				rec.Update("B", "append", "b1") // 4
				rec.Update("B", "seal")         // 5
				rec.Sync("B", "A")              // 6
				rec.Sync("B", "C")              // 7
				rec.Update("C", "append", "c1") // 8
				rec.Update("C", "seal")         // 9
				rec.Sync("C", "A")              // 10
				rec.Sync("C", "B")              // 11
				rec.Observe("A", "read")        // 12
				rec.Observe("B", "read")        // 13
				rec.Observe("C", "read")        // 14
				rec.Update("A", "append", "a2") // 15
				rec.Update("A", "seal")         // 16
				rec.Observe("A", "verify")      // 17
			}, prune.Config{
				Grouping: groups(ids(0, 1, 2, 3), ids(8, 9, 10, 11),
					ids(12, 13, 14), ids(15, 16, 17)),
				TestedReplicas: []event.ReplicaID{"A"},
			}, nil)
		},
	}
}

// orbit5 is OrbitDB issue #557, "repo folder keeps getting locked": a
// close that overtakes the flush leaks the folder lock; the reopen and
// every later write fail. 24 events. This is the paper's Figure-10
// scalability benchmark.
//
// Reported manifestation: A's close (14) overtakes A's flush (13): the
// reopen (15) and the follow-up append (16) fail.
func orbit5() *Benchmark {
	newCluster := orbitCluster(orbit.Flags{BugLockLeak: true}, nil)
	return &Benchmark{
		Name: "OrbitDB-5", Subject: "OrbitDB", Issue: 557, Events: 24,
		Status: "closed", Reason: "misconception",
		FixedCluster: orbitCluster(orbit.Flags{}, nil),
		Trigger: ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
			14, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23),
		sig: fullSig,
		Build: func() (runner.Scenario, error) {
			return buildScenario("OrbitDB-5", newCluster, func(rec *runner.Recorder) {
				rec.Update("B", "append", "b1") // 0
				rec.Update("B", "flush")        // 1
				rec.Update("B", "close")        // 2
				rec.Update("B", "reopen")       // 3
				rec.Update("C", "append", "c1") // 4
				rec.Update("C", "flush")        // 5
				rec.Update("C", "close")        // 6
				rec.Update("C", "reopen")       // 7
				rec.Sync("B", "C")              // 8
				rec.Sync("C", "B")              // 9
				rec.Observe("B", "read")        // 10
				rec.Observe("C", "read")        // 11
				rec.Update("A", "append", "a1") // 12
				rec.Update("A", "flush")        // 13
				rec.Update("A", "close")        // 14
				rec.Update("A", "reopen")       // 15
				rec.Update("A", "append", "a2") // 16
				rec.Sync("A", "B")              // 17
				rec.Sync("A", "C")              // 18
				rec.Sync("B", "A")              // 19
				rec.Sync("C", "A")              // 20
				rec.Observe("A", "read")        // 21
				rec.Update("A", "flush")        // 22
				rec.Observe("A", "verify")      // 23
			}, prune.Config{
				Grouping: groups(ids(0, 1, 2, 3), ids(4, 5, 6, 7),
					ids(8, 9, 10, 11), ids(17, 18, 19, 20), ids(21, 22, 23)),
				TestedReplicas: []event.ReplicaID{"A"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(0, 4)}, // B's and C's local lifecycles commute
				},
			}, nil)
		},
	}
}
