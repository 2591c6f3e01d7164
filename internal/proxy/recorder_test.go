package proxy_test

// Recording RDL calls as events (paper §4.1) is runner.Recorder's job: it
// validates each call, appends it and applies it to the cluster, and
// event.NewLog numbers and stamps the log. These tests pin that job under
// the names they had when this package recorded calls itself.

import (
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
)

// opList is a replica state that remembers every op and sync applied to it.
type opList struct{ ops []string }

func (s *opList) Apply(op replica.Op) (string, error) {
	s.ops = append(s.ops, op.Name+"("+strings.Join(op.Args, ",")+")")
	return strings.Join(s.ops, " "), nil
}
func (s *opList) SyncPayload() ([]byte, error) { return []byte(strings.Join(s.ops, " ")), nil }
func (s *opList) ApplySync(p []byte) error {
	s.ops = append(s.ops, "sync["+string(p)+"]")
	return nil
}
func (s *opList) Snapshot() ([]byte, error) { return s.SyncPayload() }
func (s *opList) Restore(b []byte) error {
	s.ops = strings.Fields(string(b))
	return nil
}
func (s *opList) Fingerprint() string { return strings.Join(s.ops, " ") }

func newCluster() *replica.Cluster {
	return replica.NewCluster(map[event.ReplicaID]replica.State{"A": &opList{}, "B": &opList{}})
}

// TestRecordMode: recorded events get dense IDs and Lamport stamps in
// record order.
func TestRecordMode(t *testing.T) {
	rec := runner.NewRecorder(newCluster())
	rec.Update("A", "set.add", "x")
	rec.Update("B", "set.remove", "x")
	if id, _ := rec.Observe("A", "set.read"); id != 2 {
		t.Fatalf("observation recorded as event %d, want 2", id)
	}
	if id := rec.Sync("A", "B"); id != 3 {
		t.Fatalf("sync recorded as event %d, want 3", id)
	}
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 4 {
		t.Fatalf("recorded %d events, want 4", log.Len())
	}
	for k, ev := range log.Events() {
		if ev.ID != event.ID(k) || ev.Lamport != uint64(k+1) {
			t.Fatalf("event %d has ID %d and Lamport %d; want dense IDs and stamps in record order", k, ev.ID, ev.Lamport)
		}
	}
}

// TestRecordRejectsInvalidEvent: an invalid call fails the recording, and
// Log reports it.
func TestRecordRejectsInvalidEvent(t *testing.T) {
	rec := runner.NewRecorder(newCluster())
	rec.Update("A", "set.add", "x")
	rec.SyncPair("A", "A") // a sync from a replica to itself
	if rec.Err() == nil {
		t.Fatal("an invalid event must fail the recording")
	}
	if _, err := rec.Log(); err == nil || !strings.Contains(err.Error(), "sync_req A->A") {
		t.Fatalf("Log() = %v; want the invalid call named", err)
	}
}

// TestPassthroughExecutes: every recorded call is applied to the cluster,
// and its result comes back to the caller.
func TestPassthroughExecutes(t *testing.T) {
	c := newCluster()
	rec := runner.NewRecorder(c)
	if got := rec.Update("A", "set.add", "x"); got != "set.add(x)" {
		t.Fatalf("update returned %q", got)
	}
	rec.SyncPair("A", "B")
	if _, got := rec.Observe("B", "set.read"); got != "sync[set.add(x)] set.read()" {
		t.Fatalf("observation returned %q", got)
	}
	rec.Sync("B", "A")
	if _, err := rec.Log(); err != nil {
		t.Fatal(err)
	}
	fp := c.Fingerprints()
	if want := "set.add(x) sync[sync[set.add(x)] set.read()]"; fp["A"] != want {
		t.Fatalf("A holds %q, want %q", fp["A"], want)
	}
}
