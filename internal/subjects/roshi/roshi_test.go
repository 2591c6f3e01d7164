package roshi

import (
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
)

func TestInsertSelect(t *testing.T) {
	s := New(Flags{})
	s.Insert("feed", "a", 3)
	s.Insert("feed", "b", 5)
	rows := s.Select("feed", false)
	if len(rows) != 2 || rows[0].Member != "b" || rows[1].Member != "a" {
		t.Fatalf("Select = %+v, want descending score", rows)
	}
}

func TestDeleteWinsNewerScore(t *testing.T) {
	s := New(Flags{})
	s.Insert("k", "m", 5)
	s.Delete("k", "m", 7)
	if rows := s.Select("k", false); len(rows) != 0 {
		t.Fatalf("deleted member still live: %+v", rows)
	}
	rows := s.Select("k", true)
	if len(rows) != 1 || !rows[0].Deleted {
		t.Fatalf("tombstone missing: %+v", rows)
	}
	// Older insert does not resurrect.
	s.Insert("k", "m", 6)
	if rows := s.Select("k", false); len(rows) != 0 {
		t.Fatalf("stale insert resurrected member: %+v", rows)
	}
}

func TestEqualScoreDeterministicWithoutBug(t *testing.T) {
	// Two stores apply the same equal-score ops in opposite orders and
	// must agree: deletes win ties.
	a, b := New(Flags{}), New(Flags{})
	a.Insert("k", "m", 5)
	a.Delete("k", "m", 5)
	b.Delete("k", "m", 5)
	b.Insert("k", "m", 5)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal-score resolution order-dependent: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if rows := a.Select("k", false); len(rows) != 0 {
		t.Fatalf("delete must win the tie, got %+v", rows)
	}
}

func TestBugEqualTimestampArrivalDiverges(t *testing.T) {
	flags := Flags{BugEqualTimestampArrival: true}
	a, b := New(flags), New(flags)
	a.Insert("k", "m", 5)
	a.Delete("k", "m", 5)
	b.Delete("k", "m", 5)
	b.Insert("k", "m", 5)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seeded issue #11 must make equal-score resolution arrival-dependent")
	}
}

func TestBugDeletedFieldTombstoneFirst(t *testing.T) {
	// Correct store: a delete arriving before its insert leaves the member
	// dead.
	good := New(Flags{})
	good.Delete("k", "m", 9)
	good.Insert("k", "m", 5)
	if len(good.Select("k", false)) != 0 {
		t.Fatal("correct store must keep the member dead")
	}
	// Buggy store: the tombstone-first path forgets the deleted field, so
	// the member appears live (issue #18).
	bad := New(Flags{BugDeletedField: true})
	bad.Delete("k", "m", 9)
	bad.Insert("k", "m", 5)
	if len(bad.Select("k", false)) != 1 {
		t.Fatal("seeded issue #18 must surface the member as live")
	}
}

func TestBugMapOrderArrivalDependent(t *testing.T) {
	flags := Flags{BugMapOrder: true}
	a, b := New(flags), New(flags)
	// Same score, applied in opposite orders.
	a.Insert("k", "x", 5)
	a.Insert("k", "y", 5)
	b.Insert("k", "y", 5)
	b.Insert("k", "x", 5)
	ra := a.render("k", false)
	rb := b.render("k", false)
	if ra == rb {
		t.Fatal("seeded issue #40 must make equal-score order arrival-dependent")
	}
	// Without the bug the order is canonical.
	ga, gb := New(Flags{}), New(Flags{})
	ga.Insert("k", "x", 5)
	ga.Insert("k", "y", 5)
	gb.Insert("k", "y", 5)
	gb.Insert("k", "x", 5)
	if ga.render("k", false) != gb.render("k", false) {
		t.Fatal("correct store must order equal scores canonically")
	}
}

func TestApplyOps(t *testing.T) {
	s := New(Flags{})
	if _, err := s.Apply(replica.Op{Name: "insert", Args: []string{"k", "m", "5"}}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Apply(replica.Op{Name: "select", Args: []string{"k"}})
	if err != nil || out != "m@5" {
		t.Fatalf("select = %q, %v", out, err)
	}
	// LWW semantics: a delete of a not-yet-known member records a
	// tombstone rather than failing.
	if _, err := s.Apply(replica.Op{Name: "delete", Args: []string{"k", "ghost", "9"}}); err != nil {
		t.Fatalf("delete of unknown member = %v, want tombstone", err)
	}
	if out, _ := s.Apply(replica.Op{Name: "selectAll", Args: []string{"k"}}); !strings.Contains(out, "ghost@9:deleted") {
		t.Fatalf("tombstone missing: %q", out)
	}
	if _, err := s.Apply(replica.Op{Name: "delete", Args: []string{"k", "m", "9"}}); err != nil {
		t.Fatal(err)
	}
	out, err = s.Apply(replica.Op{Name: "selectAll", Args: []string{"k"}})
	if err != nil || !strings.Contains(out, "deleted") {
		t.Fatalf("selectAll = %q, %v", out, err)
	}
	if _, err := s.Apply(replica.Op{Name: "nope"}); err == nil {
		t.Fatal("unknown op must fail")
	}
}

func TestSyncConvergence(t *testing.T) {
	a, b := New(Flags{}), New(Flags{})
	a.Insert("k", "x", 3)
	b.Insert("k", "y", 4)
	b.Delete("k", "y", 6)
	pa, err := a.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ApplySync(pb); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplySync(pa); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("divergence after mutual sync: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New(Flags{})
	s.Insert("k", "m", 5)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Insert("k", "extra", 9)
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rows := s.Select("k", false); len(rows) != 1 || rows[0].Member != "m" {
		t.Fatalf("restore lost state: %+v", rows)
	}
}
