package replica

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
)

// setState is a toy State over a plain string set, used to exercise the
// cluster machinery.
type setState struct {
	members map[string]bool
}

func newSetState() *setState { return &setState{members: make(map[string]bool)} }

func (s *setState) Apply(op Op) (string, error) {
	switch op.Name {
	case "add":
		s.members[op.Args[0]] = true
		return "", nil
	case "read":
		return s.Fingerprint(), nil
	default:
		return "", fmt.Errorf("unknown op %s", op.Name)
	}
}

func (s *setState) SyncPayload() ([]byte, error) { return json.Marshal(s.members) }

func (s *setState) ApplySync(payload []byte) error {
	var other map[string]bool
	if err := json.Unmarshal(payload, &other); err != nil {
		return err
	}
	for k := range other {
		s.members[k] = true
	}
	return nil
}

func (s *setState) Snapshot() ([]byte, error) { return json.Marshal(s.members) }

func (s *setState) Restore(snap []byte) error {
	s.members = make(map[string]bool)
	return json.Unmarshal(snap, &s.members)
}

func (s *setState) Fingerprint() string {
	var keys []string
	for k := range s.members {
		keys = append(keys, k)
	}
	// sort for canonical form
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return strings.Join(keys, ",")
}

func newTestCluster() *Cluster {
	return NewCluster(map[event.ReplicaID]State{
		"A": newSetState(),
		"B": newSetState(),
	})
}

func TestOpString(t *testing.T) {
	if got := (Op{Name: "add", Args: []string{"x", "y"}}).String(); got != "add(x,y)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Op{Name: "read"}).String(); got != "read" {
		t.Fatalf("String = %q", got)
	}
}

func TestClusterNodeLookup(t *testing.T) {
	c := newTestCluster()
	if _, err := c.Node("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node("Z"); err == nil {
		t.Fatal("unknown replica must error")
	}
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != "A" || ids[1] != "B" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestCheckpointAndReset(t *testing.T) {
	c := newTestCluster()
	a, _ := c.Node("A")
	if _, err := a.State.Apply(Op{Name: "add", Args: []string{"base"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.State.Apply(Op{Name: "add", Args: []string{"dirty"}}); err != nil {
		t.Fatal(err)
	}
	if a.State.Fingerprint() != "base,dirty" {
		t.Fatalf("pre-reset fingerprint = %q", a.State.Fingerprint())
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if a.State.Fingerprint() != "base" {
		t.Fatalf("post-reset fingerprint = %q, want base", a.State.Fingerprint())
	}
}

func TestResetWithoutCheckpointFails(t *testing.T) {
	c := newTestCluster()
	if err := c.Reset(); err == nil {
		t.Fatal("reset without checkpoint must fail")
	}
}

func TestConvergedAndFingerprints(t *testing.T) {
	c := newTestCluster()
	if !c.Converged() {
		t.Fatal("fresh identical states must be converged")
	}
	a, _ := c.Node("A")
	if _, err := a.State.Apply(Op{Name: "add", Args: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if c.Converged() {
		t.Fatal("divergent states reported converged")
	}
	fps := c.Fingerprints()
	if fps["A"] != "x" || fps["B"] != "" {
		t.Fatalf("Fingerprints = %v", fps)
	}
	// Sync B from A restores convergence.
	b, _ := c.Node("B")
	payload, err := a.State.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.State.ApplySync(payload); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("states must converge after sync")
	}
}

// versionedSet is setState with a version counter bumped on every
// mutation, counting the Restores the cluster makes.
type versionedSet struct {
	setState
	ver      uint64
	restores int
}

func (s *versionedSet) Apply(op Op) (string, error) {
	if op.Name != "read" {
		s.ver++
	}
	return s.setState.Apply(op)
}

func (s *versionedSet) ApplySync(payload []byte) error {
	s.ver++
	return s.setState.ApplySync(payload)
}

func (s *versionedSet) Restore(snap []byte) error {
	s.ver++
	s.restores++
	return s.setState.Restore(snap)
}

func (s *versionedSet) StateVersion() uint64 { return s.ver }

// TestRestoreSnapshotSkipsReplicasThatHoldIt: a replica whose live state
// is still the snapshot's buffer is not restored; one that moved since is,
// and so is every replica in full mode.
func TestRestoreSnapshotSkipsReplicasThatHoldIt(t *testing.T) {
	a, b := &versionedSet{setState: *newSetState()}, &versionedSet{setState: *newSetState()}
	c := NewCluster(map[event.ReplicaID]State{"A": a, "B": b})
	snap, err := c.CanonicalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(Op{Name: "add", Args: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if a.restores != 1 || b.restores != 0 {
		t.Fatalf("restores A=%d B=%d, want 1 and 0", a.restores, b.restores)
	}
	if a.members["x"] {
		t.Fatal("A still holds x after the restore")
	}
	// A now holds the adopted buffer too: a second restore touches nothing.
	if err := c.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if a.restores != 1 || b.restores != 0 {
		t.Fatalf("second restore: A=%d B=%d, want 1 and 0", a.restores, b.restores)
	}
	c.SetFullHashing(true)
	if err := c.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if a.restores != 2 || b.restores != 1 {
		t.Fatalf("full mode: A=%d B=%d, want 2 and 1", a.restores, b.restores)
	}
}
