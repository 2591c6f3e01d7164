package canon

import (
	"bytes"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/crdts"
	"github.com/er-pi/erpi/internal/subjects/orbit"
	"github.com/er-pi/erpi/internal/subjects/replicadb"
)

// TestExportedMutatorsBumpVersion pins the replica.Versioned contract on
// the subjects' exported mutators, not only inside Apply: a caller that
// mutates a state directly between two cached reads must still get fresh
// snapshot and payload bytes from the cluster. Each step warms both
// caches, calls one mutator directly, and requires the version to move
// and the cached bytes to equal what the state builds on the spot.
func TestExportedMutatorsBumpVersion(t *testing.T) {
	type mutatorStep struct {
		name   string
		mutate func()
	}
	db := orbit.New("A", orbit.Flags{BugMutateAfterHash: true})
	node := replicadb.New(replicadb.Flags{})
	ws := crdts.New("A", crdts.Flags{})
	for _, c := range []struct {
		name  string
		state replica.State
		steps []mutatorStep
	}{
		{"orbit", db, []mutatorStep{
			{"Append", func() { _ = db.Append("a") }},
			{"Seal", db.Seal},
			{"Append", func() { _ = db.Append("b") }},
			{"Flush", db.Flush},
			{"Close", db.Close},
			{"Reopen", func() { _ = db.Reopen() }},
			{"AppendWithClock", func() { db.AppendWithClock("f", 50) }},
		}},
		{"replicadb", node, []mutatorStep{
			{"Insert", func() { node.Insert("k1", "v1") }},
			{"Insert", func() { node.Insert("k2", "v2") }},
			{"TransferComplete", node.TransferComplete},
			{"Delete", func() { _ = node.Delete("k1") }},
			{"TransferIncremental", node.TransferIncremental},
			{"Insert", func() { node.Insert("k3", "v3") }},
			{"Fetch", func() { _ = node.Fetch(2) }},
			{"Drain", node.Drain},
		}},
		{"crdts", ws, []mutatorStep{
			{"CreateTodo", func() { ws.CreateTodo("buy milk") }},
			{"CreateTodo", func() { ws.CreateTodo("walk dog") }},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := replica.NewCluster(map[event.ReplicaID]replica.State{"A": c.state})
			n, err := cl.Node("A")
			if err != nil {
				t.Fatal(err)
			}
			v := c.state.(replica.Versioned)
			for i, step := range c.steps {
				if _, err := cl.CanonicalSnapshot(); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.SyncPayload(n); err != nil {
					t.Fatal(err)
				}
				before := v.StateVersion()
				step.mutate()
				if v.StateVersion() == before {
					t.Errorf("step %d: %s did not bump StateVersion", i, step.name)
				}
				snap, err := cl.CanonicalSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.state.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap.Bufs[0].Data, want) {
					t.Errorf("step %d: after %s the cluster served a stale snapshot", i, step.name)
				}
				payload, err := cl.SyncPayload(n)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := c.state.SyncPayload(); !bytes.Equal(payload, want) {
					t.Errorf("step %d: after %s the cluster served a stale sync payload", i, step.name)
				}
			}
		})
	}
}
