package canon

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/crdts"
	"github.com/er-pi/erpi/internal/subjects/orbit"
	"github.com/er-pi/erpi/internal/subjects/replicadb"
	"github.com/er-pi/erpi/internal/subjects/roshi"
	"github.com/er-pi/erpi/internal/subjects/yorkie"
)

// selfSync merges the state's own sync payload back into it: a sync that
// applies nothing new.
func selfSync(s replica.State) func() {
	return func() {
		payload, err := s.SyncPayload()
		if err != nil {
			panic(err)
		}
		_ = s.ApplySync(payload)
	}
}

// TestExportedMutatorsBumpVersion pins the replica.Versioned contract on
// the subjects' exported mutators, not only inside Apply: a caller that
// mutates a state directly between two cached reads must still get fresh
// snapshot and payload bytes from the cluster. Each step warms both
// caches, calls one mutator directly, and requires the version to move
// and the cached bytes to equal what the state builds on the spot.
//
// Each subject ends with a no-op sync, its own payload merged back. That
// is not a mutation: the snapshot must not change, and the cluster must
// still serve fresh bytes. Yorkie and Orbit, which skip the bump for a
// sync that applies nothing (DESIGN.md §4.15), must leave the version
// where it was.
func TestExportedMutatorsBumpVersion(t *testing.T) {
	type mutatorStep struct {
		name   string
		mutate func()
		// noop marks a step that must leave the snapshot as it was.
		noop bool
	}
	db := orbit.New("A", orbit.Flags{BugMutateAfterHash: true})
	node := replicadb.New(replicadb.Flags{})
	ws := crdts.New("A", crdts.Flags{})
	store := roshi.New(roshi.Flags{})
	doc := yorkie.New("A", yorkie.Flags{})
	for _, c := range []struct {
		name  string
		state replica.State
		steps []mutatorStep
		// keepsVersion marks a subject whose no-op sync leaves the version
		// alone.
		keepsVersion bool
	}{
		{"orbit", db, []mutatorStep{
			{"Append", func() { _ = db.Append("a") }, false},
			{"Seal", db.Seal, false},
			{"Append", func() { _ = db.Append("b") }, false},
			{"Flush", db.Flush, false},
			{"Close", db.Close, false},
			{"Reopen", func() { _ = db.Reopen() }, false},
			{"AppendWithClock", func() { db.AppendWithClock("f", 50) }, false},
			{"ApplySync (no-op)", selfSync(db), true},
		}, true},
		{"replicadb", node, []mutatorStep{
			{"Insert", func() { node.Insert("k1", "v1") }, false},
			{"Insert", func() { node.Insert("k2", "v2") }, false},
			{"TransferComplete", node.TransferComplete, false},
			{"Delete", func() { _ = node.Delete("k1") }, false},
			{"TransferIncremental", node.TransferIncremental, false},
			{"Insert", func() { node.Insert("k3", "v3") }, false},
			{"Fetch", func() { _ = node.Fetch(2) }, false},
			{"Drain", node.Drain, false},
			{"ApplySync (no-op)", selfSync(node), true},
		}, false},
		{"crdts", ws, []mutatorStep{
			{"CreateTodo", func() { ws.CreateTodo("buy milk") }, false},
			{"CreateTodo", func() { ws.CreateTodo("walk dog") }, false},
			{"ApplySync (no-op)", selfSync(ws), true},
		}, false},
		{"roshi", store, []mutatorStep{
			{"Insert", func() { store.Insert("k", "m1", 2) }, false},
			{"Delete", func() { store.Delete("k", "m2", 3) }, false},
			{"ApplySync (no-op)", selfSync(store), true},
		}, false},
		{"yorkie", doc, []mutatorStep{
			{"Apply", func() { _, _ = doc.Apply(replica.Op{Name: "set", Args: []string{"k", "v"}}) }, false},
			{"Apply", func() { _, _ = doc.Apply(replica.Op{Name: "arrInsert", Args: []string{"0", "x"}}) }, false},
			{"ApplySync (no-op)", selfSync(doc), true},
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := replica.NewCluster(map[event.ReplicaID]replica.State{"A": c.state})
			n, err := cl.Node("A")
			if err != nil {
				t.Fatal(err)
			}
			v := c.state.(replica.Versioned)
			for i, step := range c.steps {
				warm, err := cl.CanonicalSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.SyncPayload(n); err != nil {
					t.Fatal(err)
				}
				before := v.StateVersion()
				step.mutate()
				moved := v.StateVersion() != before
				switch {
				case !step.noop && !moved:
					t.Errorf("step %d: %s did not bump StateVersion", i, step.name)
				case step.noop && c.keepsVersion && moved:
					t.Errorf("step %d: %s bumped StateVersion", i, step.name)
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
				if step.noop && !bytes.Equal(warm.Bufs[0].Data, want) {
					t.Errorf("step %d: %s changed the snapshot", i, step.name)
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

// TestSyncThatChangesSnapshotBumpsVersion is the randomized lockstep
// check of the one rule a sync that skips its bump must keep: three
// replicas of every subject variant run random ops and syncs — repeats of
// payloads already merged among them — and every ApplySync or Apply whose
// Snapshot bytes differ afterwards must have moved StateVersion.
func TestSyncThatChangesSnapshotBumpsVersion(t *testing.T) {
	for _, c := range incCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(0x5bc + int64(len(c.name))))
			states := make([]replica.State, len(incReplicas))
			for i, id := range incReplicas {
				states[i] = c.fresh(string(id))
			}
			syncs, unchanged := 0, 0
			for step := 0; step < 600; step++ {
				dst := states[r.Intn(len(states))]
				before, ver := snap(t, dst), dst.(replica.Versioned).StateVersion()
				what := "Apply"
				if r.Intn(2) == 0 {
					_, _ = dst.Apply(c.op(r))
				} else {
					what = "ApplySync"
					payload, err := states[r.Intn(len(states))].SyncPayload()
					if err != nil {
						t.Fatal(err)
					}
					_ = dst.ApplySync(payload)
					syncs++
				}
				after := snap(t, dst)
				if bytes.Equal(before, after) {
					unchanged++
					continue
				}
				if dst.(replica.Versioned).StateVersion() == ver {
					t.Fatalf("step %d: %s changed the snapshot without bumping StateVersion", step, what)
				}
			}
			if syncs == 0 || unchanged == 0 {
				t.Fatalf("the mix ran %d syncs, %d of its steps left the snapshot unchanged; want both", syncs, unchanged)
			}
		})
	}
}
