package orbit

import (
	"bytes"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
)

func TestAppendRead(t *testing.T) {
	db := New("A", Flags{})
	if err := db.Append("op1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Append("op2"); err != nil {
		t.Fatal(err)
	}
	got := db.Read()
	if len(got) != 2 || got[0] != "op1" || got[1] != "op2" {
		t.Fatalf("Read = %v", got)
	}
}

func TestSyncConvergence(t *testing.T) {
	a, b := New("A", Flags{}), New("B", Flags{})
	if err := a.Append("pa"); err != nil {
		t.Fatal(err)
	}
	if err := b.Append("pb"); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("divergence: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if !strings.HasSuffix(a.Fingerprint(), "|ok") {
		t.Fatalf("integrity broken: %q", a.Fingerprint())
	}
}

func TestBugTieBreakerArrivalDependent(t *testing.T) {
	// Two entries with equal clock AND equal identity: with the defect the
	// read order depends on internal arrival; without it the hash breaks
	// the tie canonically.
	build := func(flags Flags, reverse bool) string {
		writer1 := New("W", flags)
		writer1.Append("p1")
		writer2 := New("W", flags) // same identity, independent log: clock=1
		writer2.Append("p2")
		reader := New("R", flags)
		p1, _ := writer1.SyncPayload()
		p2, _ := writer2.SyncPayload()
		if reverse {
			p1, p2 = p2, p1
		}
		if err := reader.ApplySync(p1); err != nil {
			t.Fatal(err)
		}
		if err := reader.ApplySync(p2); err != nil {
			t.Fatal(err)
		}
		return strings.Join(reader.Read(), ",")
	}
	good1 := build(Flags{}, false)
	good2 := build(Flags{}, true)
	if good1 != good2 {
		t.Fatalf("total order must be arrival-independent: %q vs %q", good1, good2)
	}
	// The buggy tie-breaker falls back to map iteration order, which Go
	// randomizes: across several attempts the orders must disagree at
	// least once.
	diverged := false
	for i := 0; i < 32 && !diverged; i++ {
		if build(Flags{BugTieBreaker: true}, false) != build(Flags{BugTieBreaker: true}, true) {
			diverged = true
		}
	}
	if !diverged {
		t.Log("warning: buggy tie-breaker did not diverge in 32 attempts (map order coincided)")
	}
}

func TestBugFutureClockHaltsProgress(t *testing.T) {
	attacker := New("E", Flags{BugFutureClock: true})
	attacker.AppendWithClock("future", 1<<40)
	payload, err := attacker.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}

	// Unguarded victim accepts the entry and its clock jumps to the far
	// future (issue #512).
	victim := New("V", Flags{BugFutureClock: true})
	if err := victim.ApplySync(payload); err != nil {
		t.Fatal(err)
	}
	out, err := victim.Apply(replica.Op{Name: "clockBelow", Args: []string{"1000000"}})
	if err != nil {
		t.Fatal(err)
	}
	if out == "ok" {
		t.Fatal("victim clock must have jumped past the limit")
	}

	// Guarded store rejects the join (surfaced as a failed op).
	guarded := New("G", Flags{})
	if err := guarded.ApplySync(payload); err != replica.ErrFailedOp {
		t.Fatalf("guarded join = %v, want failed op", err)
	}
}

func TestBugStaleHeadCacheRejectsAppend(t *testing.T) {
	a := New("A", Flags{BugStaleHeadCache: true})
	b := New("B", Flags{})
	if err := a.Append("a1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Append("b1"); err != nil {
		t.Fatal(err)
	}
	pb, err := b.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ApplySync(pb); err != nil {
		t.Fatal(err)
	}
	// The join changed the live heads but not the cache: the next append
	// fails although write access is granted (issue #1153).
	if err := a.Append("a2"); err != replica.ErrFailedOp {
		t.Fatalf("append after join = %v, want failed op", err)
	}
	// Without the defect the same sequence succeeds.
	c := New("C", Flags{})
	if err := c.Append("c1"); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplySync(pb); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("c2"); err != nil {
		t.Fatalf("correct store must append after join: %v", err)
	}
}

func TestBugMutateAfterHashCorruptsSync(t *testing.T) {
	a := New("A", Flags{BugMutateAfterHash: true})
	b := New("B", Flags{})
	if err := a.Append("fresh"); err != nil {
		t.Fatal(err)
	}
	// Sync BEFORE the seal: the unsealed entry is annotated after hashing
	// and the receiver rejects it (issue #583).
	payload, err := a.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplySync(payload); err != replica.ErrFailedOp {
		t.Fatalf("sync of mutated entry = %v, want failed op", err)
	}
	// Seal first, then sync: no corruption.
	a2 := New("A2", Flags{BugMutateAfterHash: true})
	if err := a2.Append("fresh"); err != nil {
		t.Fatal(err)
	}
	a2.Seal()
	payload2, err := a2.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplySync(payload2); err != nil {
		t.Fatalf("sealed sync must succeed: %v", err)
	}
}

// TestBugMutateAfterHashLeavesSenderIntact: the issue-#583 annotation
// rides the outgoing payload only. The sender's own log still verifies and
// its state version does not move, so its cached snapshot stays valid.
func TestBugMutateAfterHashLeavesSenderIntact(t *testing.T) {
	a := New("A", Flags{BugMutateAfterHash: true})
	if err := a.Append("fresh"); err != nil {
		t.Fatal(err)
	}
	ver := a.StateVersion()
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := a.SyncPayload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte("fresh#synced")) {
		t.Fatalf("pre-seal payload carries no annotation: %q", payload)
	}
	if got := a.StateVersion(); got != ver {
		t.Fatalf("SyncPayload moved StateVersion %d -> %d", ver, got)
	}
	if got, _ := a.Apply(replica.Op{Name: "verify"}); got != "ok" {
		t.Fatalf("sender verify after SyncPayload = %q, want ok", got)
	}
	if again, _ := a.Snapshot(); !bytes.Equal(again, snap) {
		t.Fatal("SyncPayload changed the sender's snapshot")
	}
}

func TestBugLockLeak(t *testing.T) {
	db := New("A", Flags{BugLockLeak: true})
	if err := db.Append("w"); err != nil {
		t.Fatal(err)
	}
	// Close interleaves before the flush: the lock leaks.
	db.Close()
	db.Flush() // too late — no-op after close under the defect
	if err := db.Reopen(); err == nil {
		t.Fatal("reopen after leaked lock must fail (issue #557)")
	}
	// Correct order: flush then close.
	good := New("B", Flags{BugLockLeak: true})
	if err := good.Append("w"); err != nil {
		t.Fatal(err)
	}
	good.Flush()
	good.Close()
	if err := good.Reopen(); err != nil {
		t.Fatalf("clean reopen failed: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	db := New("A", Flags{})
	if err := db.Append("p1"); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append("p2"); err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := db.Read(); len(got) != 1 || got[0] != "p1" {
		t.Fatalf("restore lost state: %v", got)
	}
}

func TestClosedAppendIsFailedOp(t *testing.T) {
	db := New("A", Flags{})
	db.Close()
	if err := db.Append("x"); err != replica.ErrFailedOp {
		t.Fatalf("append on closed repo = %v, want failed op", err)
	}
}
