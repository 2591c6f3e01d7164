package bugs

import (
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/subjects/replicadb"
)

func replicadbCluster(flags replicadb.Flags) func() (*replica.Cluster, error) {
	return func() (*replica.Cluster, error) {
		return replica.NewCluster(map[event.ReplicaID]replica.State{
			"A": replicadb.New(flags),
			"B": replicadb.New(flags),
			"C": replicadb.New(flags),
		}), nil
	}
}

// replicadb1 is ReplicaDB issue #79, "out of memory error": the fetch path
// ignores the buffer bound, so interleavings where fetches outpace the
// drains grow the buffer past the memory budget. 10 events.
//
// Reported manifestation: the second fetch (6) overtakes the first drain
// (5), so the buffer peaks at 6 rows against a 4-row budget.
func replicadb1() *Benchmark {
	const limit = 4
	newCluster := replicadbCluster(replicadb.Flags{BugUnboundedBuffer: true, BufferLimit: limit})
	return &Benchmark{
		Name: "ReplicaDB-1", Subject: "ReplicaDB", Issue: 79, Events: 10,
		Status: "closed", Reason: "misuse",
		FixedCluster: replicadbCluster(replicadb.Flags{BufferLimit: limit}),
		Trigger:      ids(0, 1, 2, 3, 4, 6, 5, 7, 8, 9),
		sig:          obsSig(8, 9),
		Build: func() (runner.Scenario, error) {
			return buildScenario("ReplicaDB-1", newCluster, func(rec *runner.Recorder) {
				rec.Update("B", "insert", "r1", "x")  // 0
				rec.Sync("B", "A")                    // 1
				rec.Update("A", "insert", "k1", "v1") // 2
				rec.Update("A", "insert", "k2", "v2") // 3
				rec.Update("A", "fetch", "3")         // 4
				rec.Update("A", "drain")              // 5
				rec.Update("A", "fetch", "3")         // 6
				rec.Update("A", "drain")              // 7
				rec.Observe("A", "peakBuffer")        // 8
				rec.Observe("A", "readSink")          // 9
			}, prune.Config{
				Grouping:       groups(ids(0, 1)),
				TestedReplicas: []event.ReplicaID{"A"},
				IndependentSets: []prune.IndependenceSpec{
					{Events: ids(2, 3)}, // inserts of distinct keys commute
				},
			}, nil)
		},
	}
}

// replicadb2 is ReplicaDB issue #23, "deleted records aren't getting
// deleted from the sink tables": incremental mode skips tombstones, so a
// record replicated before its deletion lingers in the sink. 14 events.
//
// Reported manifestation: the complete transfer (10) and its sink read
// (11) overtake the delete block (7-9); the later incremental transfer
// (12) then skips the tombstone and the final read (13) still shows k1.
func replicadb2() *Benchmark {
	newCluster := replicadbCluster(replicadb.Flags{BugMissTombstones: true})
	finalize := func(c *replica.Cluster) error {
		// A deterministic final incremental transfer: the corrected
		// subject always reconciles sink and source here, so the lingering
		// record in the final state is unreachable without the defect.
		node, err := c.Node("A")
		if err != nil {
			return err
		}
		_, err = node.State.Apply(replica.Op{Name: "transferIncremental"})
		return err
	}
	return &Benchmark{
		Name: "ReplicaDB-2", Subject: "ReplicaDB", Issue: 23, Events: 14,
		Status: "closed", Reason: "misconception",
		FixedCluster: replicadbCluster(replicadb.Flags{}),
		Trigger:      ids(0, 1, 2, 3, 4, 5, 6, 10, 11, 7, 8, 9, 12, 13),
		// The report: "the sink still shows the deleted record" — the
		// post-transfer sink read plus the final source/sink state.
		sig: func(w *sigBuf, o *runner.Outcome) {
			obsPart(w, o, []event.ID{13})
			w.sep('|')
			fpPart(w, o)
		},
		Build: func() (runner.Scenario, error) {
			return buildScenario("ReplicaDB-2", newCluster, func(rec *runner.Recorder) {
				rec.Update("A", "insert", "k1", "v1")  // 0
				rec.Update("A", "insert", "k2", "v2")  // 1
				rec.Update("B", "insert", "k3", "v3")  // 2
				rec.Sync("B", "A")                     // 3
				rec.Update("C", "insert", "k4", "v4")  // 4
				rec.Sync("C", "A")                     // 5
				rec.Observe("A", "readSource")         // 6
				rec.Update("A", "delete", "k1")        // 7
				rec.Update("A", "delete", "k1")        // 8 doomed after 7
				rec.Update("A", "delete", "k1")        // 9 doomed after 7
				rec.Update("A", "transferComplete")    // 10
				rec.Observe("A", "readSink")           // 11
				rec.Update("A", "transferIncremental") // 12
				rec.Observe("A", "readSink")           // 13
			}, prune.Config{
				Grouping:       groups(ids(2, 3), ids(4, 5)),
				TestedReplicas: []event.ReplicaID{"A"},
				FailedOps: []prune.FailedOpsSpec{
					{Predecessors: ids(7), Successors: ids(8, 9)},
				},
			}, finalize)
		},
	}
}
