package bugs

import (
	"strconv"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/yorkie"
)

func yorkieCluster(flags yorkie.Flags) func() (*replica.Cluster, error) {
	return func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": yorkie.New("A", flags),
			"B": yorkie.New("B", flags),
			"C": yorkie.New("C", flags),
		}), nil
	}
}

// yorkie1 is Yorkie issue #676, "Document doesn't converge when using
// Array.MoveAfter": moves are delete+fresh-insert, so concurrent moves of
// the same element leave each replica with only its own relocation.
// 17 events.
//
// Reported manifestation: B's move (11) overtakes A's move-sync (10), so
// both replicas move x concurrently and the document never converges.
func yorkie1() *Benchmark {
	newCluster := yorkieCluster(yorkie.Flags{BugMoveAfter: true})
	return &Benchmark{
		Name: "Yorkie-1", Subject: "Yorkie", Issue: 676, Events: 17,
		Status: "open", Reason: "—",
		FixedCluster: yorkieCluster(yorkie.Flags{}),
		Trigger:      ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11, 12, 13, 14, 15, 16),
		// The report: three replicas read different arrays AND the
		// divergence survives full anti-entropy — mere propagation lag
		// (reachable on the fixed library) never matches because the
		// post-finalize fingerprints reconcile there.
		sig: func(w *sigBuf, o *runner.Outcome) {
			obsPart(w, o, []event.ID{16})
			w.b = append(w.b, "|converged="...)
			w.b = strconv.AppendBool(w.b, o.Converged)
		},
		Build: func() (runner.Scenario, error) {
			return buildScenario("Yorkie-1", newCluster, func(rec *runner.Recorder) {
				rec.Update("A", "arrInsert", "0", "x") // 0
				rec.Update("A", "arrInsert", "1", "y") // 1
				rec.Update("A", "arrInsert", "2", "z") // 2
				rec.Sync("A", "B")                     // 3
				rec.Sync("A", "C")                     // 4
				rec.Update("C", "arrInsert", "3", "w") // 5
				rec.Sync("C", "A")                     // 6
				rec.Sync("C", "B")                     // 7
				rec.Observe("C", "readArr")            // 8
				rec.Update("A", "arrMove", "0", "3")   // 9  A moves x after z
				rec.Sync("A", "B")                     // 10
				rec.Update("B", "arrMove", "0", "2")   // 11 B moves its head after y
				rec.Sync("B", "A")                     // 12
				rec.Sync("B", "C")                     // 13
				rec.Observe("A", "readArr")            // 14
				rec.Observe("B", "readArr")            // 15
				rec.Observe("C", "readArr")            // 16
			}, prune.Config{
				Grouping:       groups(ids(0, 1, 2, 3, 4), ids(5, 6, 7), ids(14, 15, 16)),
				TestedReplicas: []event.ReplicaID{"C"},
			}, runner.AntiEntropy(2))
		},
	}
}

// yorkie2 is Yorkie issue #663, "Modify the set operation to handle nested
// object values": the remote-apply path flattens a nested object whose
// parent has not arrived yet, so out-of-causal-order delivery diverges.
// 22 events.
//
// Reported manifestation: A's sync to C (15) overtakes B's (14), so C
// receives the avatar object before its parent and flattens it to a
// primitive placeholder; the document never converges.
func yorkie2() *Benchmark {
	newCluster := yorkieCluster(yorkie.Flags{BugNestedSet: true})
	return &Benchmark{
		Name: "Yorkie-2", Subject: "Yorkie", Issue: 663, Events: 22,
		Status: "closed", Reason: "misconception",
		FixedCluster: yorkieCluster(yorkie.Flags{}),
		Trigger: ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
			15, 14, 16, 17, 18, 19, 20, 21),
		sig: fullSig,
		Build: func() (runner.Scenario, error) {
			return buildScenario("Yorkie-2", newCluster, func(rec *runner.Recorder) {
				rec.Update("B", "setObject", "profile")        // 0
				rec.Update("A", "set", "title", "doc1")        // 1
				rec.Update("A", "setObject", "profile.avatar") // 2
				rec.Update("A", "set", "alpha", "a1")          // 3
				rec.Update("C", "set", "notes", "n1")          // 4
				rec.Sync("C", "B")                             // 5
				rec.Sync("C", "A")                             // 6
				rec.Observe("C", "read")                       // 7
				rec.Observe("B", "read")                       // 8
				rec.Observe("A", "read")                       // 9
				rec.Update("B", "set", "footer", "end")        // 10
				rec.Update("B", "set", "header", "h")          // 11
				rec.Update("A", "set", "beta", "b2")           // 12
				rec.Observe("A", "read")                       // 13
				rec.Sync("B", "C")                             // 14 parent reaches C first
				rec.Sync("A", "C")                             // 15 nested ops follow
				rec.Sync("A", "B")                             // 16
				rec.Sync("B", "A")                             // 17
				rec.Observe("C", "read")                       // 18
				rec.Update("C", "set", "seen", "yes")          // 19
				rec.Sync("C", "A")                             // 20
				rec.Sync("C", "B")                             // 21
			}, prune.Config{
				Grouping: groups(ids(0), ids(1, 2, 3), ids(4, 5, 6), ids(7, 8, 9),
					ids(10, 11), ids(12, 13), ids(16, 17), ids(19, 20, 21)),
				TestedReplicas: []event.ReplicaID{"C"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(10, 12)}, // disjoint-path sets commute
				},
			}, runner.AntiEntropy(2))
		},
	}
}
