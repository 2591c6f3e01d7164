package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendAndHeads(t *testing.T) {
	l := NewLog("A", TieBreakIdentityHash)
	e1 := l.Append("op1")
	if !e1.Verify() {
		t.Fatal("fresh entry must verify")
	}
	if heads := l.Heads(); len(heads) != 1 || heads[0] != e1.Hash {
		t.Fatalf("Heads = %v", heads)
	}
	e2 := l.Append("op2")
	if len(e2.Parents) != 1 || e2.Parents[0] != e1.Hash {
		t.Fatalf("e2 parents = %v, want [e1]", e2.Parents)
	}
	if heads := l.Heads(); len(heads) != 1 || heads[0] != e2.Hash {
		t.Fatalf("Heads after e2 = %v", heads)
	}
	if l.Clock() != 2 || l.Len() != 2 {
		t.Fatalf("clock=%d len=%d", l.Clock(), l.Len())
	}
}

func TestVerifyDetectsMutation(t *testing.T) {
	l := NewLog("A", TieBreakIdentityHash)
	e := l.Append("original")
	e.Payload = "tampered"
	if e.Verify() {
		t.Fatal("mutated entry must fail verification (OrbitDB #583)")
	}
}

func TestJoinConvergence(t *testing.T) {
	a := NewLog("A", TieBreakIdentityHash)
	b := NewLog("B", TieBreakIdentityHash)
	a.Append("a1")
	b.Append("b1")
	if err := a.Join(b.Entries()); err != nil {
		t.Fatal(err)
	}
	if err := b.Join(a.Entries()); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("logs must converge after mutual join")
	}
	if !reflect.DeepEqual(a.Payloads(), b.Payloads()) {
		t.Fatalf("linearization differs: %v vs %v", a.Payloads(), b.Payloads())
	}
	// Two concurrent roots -> two heads until someone appends on top.
	if heads := a.Heads(); len(heads) != 2 {
		t.Fatalf("Heads = %v, want 2 concurrent heads", heads)
	}
	a.Append("a2")
	if heads := a.Heads(); len(heads) != 1 {
		t.Fatalf("append must subsume both heads, got %v", heads)
	}
}

func TestJoinRejectsTamperedEntry(t *testing.T) {
	a := NewLog("A", TieBreakIdentityHash)
	b := NewLog("B", TieBreakIdentityHash)
	a.Append("x")
	entries := a.Entries()
	entries[0].Payload = "evil"
	if err := b.Join(entries); err == nil {
		t.Fatal("join must reject entries failing verification")
	}
}

func TestJoinWitnessesClock(t *testing.T) {
	a := NewLog("A", TieBreakIdentityHash)
	b := NewLog("B", TieBreakIdentityHash)
	for i := 0; i < 5; i++ {
		a.Append("x")
	}
	if err := b.Join(a.Entries()); err != nil {
		t.Fatal(err)
	}
	e := b.Append("mine")
	if e.Clock != 6 {
		t.Fatalf("clock after join = %d, want 6", e.Clock)
	}
}

func TestMaxClockSkewGuard(t *testing.T) {
	// Craft a far-future entry (the OrbitDB #512 scenario).
	evil := NewLog("E", TieBreakIdentityHash)
	evil.clock = 1 << 40
	evil.Append("future")

	open := NewLog("A", TieBreakIdentityHash) // no guard
	if err := open.Join(evil.Entries()); err != nil {
		t.Fatalf("unguarded log must accept any clock: %v", err)
	}
	if open.Clock() <= 1<<40 {
		t.Fatal("clock must jump to the far future — the halt hazard")
	}

	guarded := NewLog("B", TieBreakIdentityHash)
	guarded.MaxClockSkew = 1000
	err := guarded.Join(evil.Entries())
	var skew *ErrClockSkew
	if !errors.As(err, &skew) {
		t.Fatalf("guarded log must reject far-future clocks, got %v", err)
	}
	if skew.EntryClock <= skew.LocalClock {
		t.Fatal("skew error fields inconsistent")
	}
}

func TestOrderedTotalOrderConverges(t *testing.T) {
	// Same entries joined in different orders linearize identically with
	// the identity+hash tie break.
	a := NewLog("A", TieBreakIdentityHash)
	b := NewLog("B", TieBreakIdentityHash)
	c := NewLog("C", TieBreakIdentityHash)
	a.Append("pa")
	b.Append("pb")
	c.Append("pc") // all three have clock=1: tie-break territory
	l1 := NewLog("X", TieBreakIdentityHash)
	l2 := NewLog("Y", TieBreakIdentityHash)
	for _, src := range []*Log{a, b, c} {
		if err := l1.Join(src.Entries()); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []*Log{c, a, b} {
		if err := l2.Join(src.Entries()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(l1.Payloads(), l2.Payloads()) {
		t.Fatalf("total order diverged: %v vs %v", l1.Payloads(), l2.Payloads())
	}
}

func TestGetAndEntriesAreCopies(t *testing.T) {
	l := NewLog("A", TieBreakIdentityHash)
	e := l.Append("x")
	got, ok := l.Get(e.Hash)
	if !ok {
		t.Fatal("Get missed an existing entry")
	}
	got.Payload = "mutated"
	again, _ := l.Get(e.Hash)
	if again.Payload != "x" {
		t.Fatal("Get must return a copy")
	}
	if _, ok := l.Get("nope"); ok {
		t.Fatal("Get of unknown hash")
	}
}

func TestCloneIndependence(t *testing.T) {
	l := NewLog("A", TieBreakIdentityHash)
	l.Append("x")
	cp := l.Clone()
	cp.Append("y")
	if l.Len() != 1 || cp.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", l.Len(), cp.Len())
	}
	if !l.Clone().Equal(l) {
		t.Fatal("clone must equal original")
	}
}

// TestJoinProperty: joining any subsets in any order yields the same entry
// set (join is a semilattice merge).
func TestJoinProperty(t *testing.T) {
	f := func(payloads []string, order uint8) bool {
		if len(payloads) == 0 {
			return true
		}
		if len(payloads) > 6 {
			payloads = payloads[:6]
		}
		writers := []*Log{
			NewLog("A", TieBreakIdentityHash),
			NewLog("B", TieBreakIdentityHash),
		}
		for i, p := range payloads {
			writers[i%2].Append(p)
		}
		x := NewLog("X", TieBreakIdentityHash)
		y := NewLog("Y", TieBreakIdentityHash)
		if err := x.Join(writers[0].Entries()); err != nil {
			return false
		}
		if err := x.Join(writers[1].Entries()); err != nil {
			return false
		}
		if err := y.Join(writers[1].Entries()); err != nil {
			return false
		}
		if err := y.Join(writers[0].Entries()); err != nil {
			return false
		}
		if err := y.Join(writers[0].Entries()); err != nil { // idempotent
			return false
		}
		return x.Equal(y) && reflect.DeepEqual(x.Payloads(), y.Payloads())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeHashMatchesFmtEncoding pins the hashed encoding byte for byte
// against the fmt rendering it replaced — content addresses appear in
// fingerprints and verify() observations, so they must not move: quoting
// (%q), unsorted parents, and an encoding longer than the stack buffer.
func TestComputeHashMatchesFmtEncoding(t *testing.T) {
	long := strings.Repeat("p", 700)
	for _, e := range []Entry{
		{},
		{Payload: "add", Clock: 1, Identity: "A"},
		{Payload: `quote " back\slash`, Clock: 18446744073709551615, Identity: "né\x00\n\t"},
		{Payload: "x#synced", Clock: 7, Identity: "B", Parents: []string{"ff", "00", "a0"}},
		{Payload: long, Clock: 3, Identity: "C", Parents: []string{long, "b"}},
	} {
		parents := append([]string(nil), e.Parents...)
		sort.Strings(parents)
		want := sha256.Sum256([]byte(fmt.Sprintf("payload=%q clock=%d id=%q parents=%s",
			e.Payload, e.Clock, e.Identity, strings.Join(parents, ","))))
		if got := e.ComputeHash(); got != hex.EncodeToString(want[:]) {
			t.Errorf("ComputeHash(%+v) = %s, fmt encoding hashes to %x", e, got, want)
		}
		e.Hash = hex.EncodeToString(want[:])
		if !e.Verify() {
			t.Errorf("Verify rejects the fmt-encoded hash of %+v", e)
		}
		if len(e.Parents) > 1 && sort.StringsAreSorted(e.Parents) {
			t.Errorf("hashing sorted the entry's own Parents in place: %v", e.Parents)
		}
	}
}

// TestVerifiedRemembersOnlyLogOwnedEntries: the entries a log hashed
// (Append) or verified (Join) answer Verified from the remembered result. A clone handed out by Entries or
// Get, or a struct copy annotated after hashing (OrbitDB #583), carries
// no remembered result: it is verified on the spot, so once mutated it
// fails.
func TestVerifiedRemembersOnlyLogOwnedEntries(t *testing.T) {
	a := NewLog("A", TieBreakIdentityHash)
	a.Append("x")
	b := NewLog("B", TieBreakIdentityHash)
	if err := b.Join(a.Entries()); err != nil {
		t.Fatal(err)
	}
	b.Append("y")
	for name, l := range map[string]*Log{"appended": a, "joined": b} {
		for _, e := range l.View() {
			if e.verified != e || !e.Verified() {
				t.Errorf("%s: log-owned entry %s has no remembered result", name, shortHash(e.Hash))
			}
		}
	}

	clone := b.Entries()[0]
	if clone.verified != nil {
		t.Error("a clone from Entries carries a remembered result")
	}
	clone.Payload += "!"
	if clone.Verified() {
		t.Error("a mutated clone from Entries passed Verified")
	}
	got, _ := b.Get(b.View()[1].Hash)
	got.Clock++
	if got.Verified() {
		t.Error("a mutated clone from Get passed Verified")
	}
	annotated := *b.View()[1]
	annotated.Payload += "#synced"
	if annotated.Verified() {
		t.Error("a copy annotated after hashing passed Verified")
	}
	if plain := *b.View()[0]; !plain.Verified() {
		t.Error("an unmutated copy failed Verified")
	}
}
