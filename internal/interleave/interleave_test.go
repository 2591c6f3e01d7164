package interleave

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/er-pi/erpi/internal/event"
)

func testLog(t *testing.T, n int) *event.Log {
	t.Helper()
	evs := make([]event.Event, n)
	for i := range evs {
		r := event.ReplicaID("A")
		if i%2 == 1 {
			r = "B"
		}
		evs[i] = event.Event{Kind: event.Update, Replica: r, Op: "op"}
	}
	log, err := event.NewLog(evs)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestFactorial(t *testing.T) {
	cases := map[int]string{
		0:  "1",
		1:  "1",
		4:  "24",
		7:  "5040",
		10: "3628800",
		24: "620448401733239439360000",
	}
	for n, want := range cases {
		if got := Factorial(n).String(); got != want {
			t.Errorf("Factorial(%d) = %s, want %s", n, got, want)
		}
	}
	if Factorial(-1).Sign() != 0 {
		t.Error("Factorial of negative must be 0")
	}
}

func TestNextPermutationOrderAndCount(t *testing.T) {
	p := identityPerm(4)
	seen := make(map[string]bool)
	prevKey := ""
	count := 0
	for {
		key := Interleaving{event.ID(p[0]), event.ID(p[1]), event.ID(p[2]), event.ID(p[3])}.Key()
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		if key <= prevKey && prevKey != "" && len(key) == len(prevKey) {
			t.Fatalf("non-lexicographic order: %s after %s", key, prevKey)
		}
		seen[key] = true
		prevKey = key
		count++
		if _, ok := nextPermutation(p); !ok {
			break
		}
	}
	if count != 24 {
		t.Fatalf("enumerated %d permutations of 4, want 24", count)
	}
}

func TestSkipPrefix(t *testing.T) {
	// From [0 1 2 3], skipping all perms with prefix [0 1] should land on
	// the first perm with prefix [0 2].
	p := []int{0, 1, 2, 3}
	changed, ok := skipPrefix(p, 2)
	if !ok {
		t.Fatal("skipPrefix returned false with permutations remaining")
	}
	if changed != 1 {
		t.Fatalf("skipPrefix changedFrom = %d, want 1 (p[0] kept, p[1] bumped)", changed)
	}
	want := []int{0, 2, 1, 3}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("skipPrefix result %v, want %v", p, want)
		}
	}
	// Skipping the last prefix exhausts the space.
	p = []int{3, 2, 1, 0}
	if _, ok := skipPrefix(p, 1); ok {
		t.Fatalf("skipPrefix past final prefix should report exhaustion, got %v", p)
	}
}

func TestNewSpaceUngrouped(t *testing.T) {
	log := testLog(t, 5)
	s := NewSpace(log)
	if s.NumUnits() != 5 {
		t.Fatalf("NumUnits = %d, want 5", s.NumUnits())
	}
	if s.Size().Cmp(big.NewInt(120)) != 0 {
		t.Fatalf("Size = %s, want 120", s.Size())
	}
}

func TestNewGroupedSpaceValidation(t *testing.T) {
	log := testLog(t, 4)
	valid := []Unit{{Events: []event.ID{0, 1}}, {Events: []event.ID{2}}, {Events: []event.ID{3}}}
	if _, err := NewGroupedSpace(log, valid); err != nil {
		t.Fatalf("valid units rejected: %v", err)
	}
	cases := []struct {
		name  string
		units []Unit
	}{
		{"empty unit", []Unit{{Events: nil}, {Events: []event.ID{0, 1, 2, 3}}}},
		{"duplicate event", []Unit{{Events: []event.ID{0, 1}}, {Events: []event.ID{1, 2, 3}}}},
		{"missing event", []Unit{{Events: []event.ID{0, 1}}, {Events: []event.ID{2}}}},
		{"unknown event", []Unit{{Events: []event.ID{0, 1, 2, 9}}}},
	}
	for _, tt := range cases {
		if _, err := NewGroupedSpace(log, tt.units); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestFlattenPreservesUnitOrder(t *testing.T) {
	log := testLog(t, 4)
	s, err := NewGroupedSpace(log, []Unit{
		{Events: []event.ID{2, 3}},
		{Events: []event.ID{0}},
		{Events: []event.ID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	il := s.Flatten([]int{1, 0, 2})
	want := Interleaving{0, 2, 3, 1}
	if !il.Equal(want) {
		t.Fatalf("Flatten = %v, want %v", il, want)
	}
}

func TestUnitOf(t *testing.T) {
	log := testLog(t, 3)
	s, err := NewGroupedSpace(log, []Unit{
		{Events: []event.ID{1, 2}},
		{Events: []event.ID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.UnitOf(2) != 0 || s.UnitOf(0) != 1 {
		t.Fatalf("UnitOf wrong: %d %d", s.UnitOf(2), s.UnitOf(0))
	}
	if s.UnitOf(9) != -1 {
		t.Fatal("UnitOf(unknown) should be -1")
	}
}

func TestDFSExplorerExhaustive(t *testing.T) {
	log := testLog(t, 4)
	dfs := NewDFS(NewSpace(log))
	all := Collect(dfs, 0)
	if len(all) != 24 {
		t.Fatalf("DFS yielded %d interleavings of 4 events, want 24", len(all))
	}
	keys := make(map[string]bool)
	for _, il := range all {
		keys[il.Key()] = true
	}
	if len(keys) != 24 {
		t.Fatalf("DFS yielded %d distinct interleavings, want 24", len(keys))
	}
	if dfs.Explored() != 24 {
		t.Fatalf("Explored() = %d, want 24", dfs.Explored())
	}
	if _, ok := dfs.Next(); ok {
		t.Fatal("exhausted explorer must keep returning ok=false")
	}
}

func TestDFSFirstIsRecordingOrder(t *testing.T) {
	log := testLog(t, 5)
	dfs := NewDFS(NewSpace(log))
	il, ok := dfs.Next()
	if !ok {
		t.Fatal("empty explorer")
	}
	if !il.Equal(Interleaving{0, 1, 2, 3, 4}) {
		t.Fatalf("first DFS interleaving = %v, want recording order", il)
	}
}

// oddBeforeEven is a toy filter accepting only permutations where unit 1
// appears before unit 0 — exactly half the space.
type oddBeforeEven struct{}

func (oddBeforeEven) Name() string { return "toy" }
func (oddBeforeEven) Canonical(perm []int) (bool, int) {
	for i, u := range perm {
		switch u {
		case 1:
			return true, 0
		case 0:
			return false, i + 1
		}
	}
	return true, 0
}

func TestPrunedExplorerFilters(t *testing.T) {
	log := testLog(t, 4)
	pruned := NewPruned(NewSpace(log), oddBeforeEven{})
	all := Collect(pruned, 0)
	if len(all) != 12 {
		t.Fatalf("pruned explorer yielded %d, want 12 (half of 24)", len(all))
	}
	for _, il := range all {
		pos := map[event.ID]int{}
		for i, id := range il {
			pos[id] = i
		}
		if pos[1] > pos[0] {
			t.Fatalf("filter violated in %v", il)
		}
	}
}

func TestPrunedMatchesPostFilteredDFS(t *testing.T) {
	// Property: the pruned explorer (with prefix skipping) must yield
	// exactly the interleavings that plain DFS + post-filtering yields, in
	// the same order.
	log := testLog(t, 5)
	space := NewSpace(log)
	pruned := Collect(NewPruned(space, oddBeforeEven{}), 0)
	var reference []Interleaving
	dfs := NewDFS(NewSpace(log))
	for {
		il, ok := dfs.Next()
		if !ok {
			break
		}
		perm := make([]int, len(il))
		for i, id := range il {
			perm[i] = int(id)
		}
		if ok, _ := (oddBeforeEven{}).Canonical(perm); ok {
			reference = append(reference, il)
		}
	}
	if len(pruned) != len(reference) {
		t.Fatalf("pruned %d vs reference %d", len(pruned), len(reference))
	}
	for i := range pruned {
		if !pruned[i].Equal(reference[i]) {
			t.Fatalf("order diverges at %d: %v vs %v", i, pruned[i], reference[i])
		}
	}
}

func TestRandExplorerDistinctAndComplete(t *testing.T) {
	log := testLog(t, 4)
	r := NewRand(NewSpace(log), 42)
	all := Collect(r, 0)
	if len(all) != 24 {
		t.Fatalf("Rand yielded %d, want all 24", len(all))
	}
	keys := make(map[string]bool)
	for _, il := range all {
		keys[il.Key()] = true
	}
	if len(keys) != 24 {
		t.Fatal("Rand yielded duplicates")
	}
	if r.Shuffles() < 24 {
		t.Fatalf("Shuffles() = %d, must be >= 24", r.Shuffles())
	}
	if r.CacheSize() != 24 {
		t.Fatalf("CacheSize() = %d, want 24", r.CacheSize())
	}
}

func TestRandDeterministicBySeed(t *testing.T) {
	log := testLog(t, 5)
	a := Collect(NewRand(NewSpace(log), 7), 10)
	b := Collect(NewRand(NewSpace(log), 7), 10)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed must give same sequence")
		}
	}
	c := Collect(NewRand(NewSpace(log), 8), 10)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

// TestRandSequencePinned pins, per seed and space, Rand's whole yield
// sequence to the end of the space and its shuffle count. The digests were
// committed from the explorer that rebuilt n! on every Next, so computing
// the bound once changes neither what Rand yields nor what it wastes.
func TestRandSequencePinned(t *testing.T) {
	for _, tc := range []struct {
		events, yielded, shuffles int
		digest                    string
	}{
		{4, 24, 91, "ba415df527c398561bbe8164c375c300c0535517b7957348240b8f105e89eeae"},
		{5, 120, 528, "1fda1ad55a890d1554528cc8a059117e8f52af0067b36f196b8b68dca988a025"},
		{6, 720, 5899, "2c9286dcd487db772a0e5e07f6067a68ec92061dec92f596c46195610a82b7cd"},
	} {
		r := NewRand(NewSpace(testLog(t, tc.events)), 7)
		var keys []string
		for _, il := range Collect(r, 0) {
			keys = append(keys, il.Key())
		}
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(keys, ";"))))
		if len(keys) != tc.yielded || r.Shuffles() != tc.shuffles || digest != tc.digest {
			t.Fatalf("%d events: %d yielded, %d shuffles, digest %s; want %d, %d, %s",
				tc.events, len(keys), r.Shuffles(), digest, tc.yielded, tc.shuffles, tc.digest)
		}
	}
}

func TestCountExact(t *testing.T) {
	log := testLog(t, 4)
	space := NewSpace(log)
	res := Count(space, nil, 0, 1)
	if !res.Exact || res.Surviving.Cmp(big.NewInt(24)) != 0 {
		t.Fatalf("Count without filters = %v exact=%v, want 24 exact", res.Surviving, res.Exact)
	}
	res = Count(space, []Filter{oddBeforeEven{}}, 0, 1)
	if res.Surviving.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("Count with toy filter = %s, want 12", res.Surviving)
	}
	if got := res.ReductionFactor(); got < 1.99 || got > 2.01 {
		t.Fatalf("ReductionFactor = %f, want 2", got)
	}
}

func TestCountSampledApproximatesHalf(t *testing.T) {
	log := testLog(t, 12) // 12 units forces sampling
	space := NewSpace(log)
	res := Count(space, []Filter{oddBeforeEven{}}, 20000, 3)
	if res.Exact {
		t.Fatal("12-unit space must be sampled, not enumerated")
	}
	f := res.ReductionFactor()
	if f < 1.9 || f > 2.1 {
		t.Fatalf("sampled reduction factor = %f, want ≈2", f)
	}
}

func TestInterleavingKeyRoundTrip(t *testing.T) {
	il := Interleaving{3, 0, 2, 1}
	if il.Key() != "3,0,2,1" {
		t.Fatalf("Key() = %q", il.Key())
	}
}

// TestInterleavingKeyMatchesFmt pins Key byte for byte against the fmt
// rendering it replaced: journals, dedup fingerprints and coordinator
// digests are keyed on the string.
func TestInterleavingKeyMatchesFmt(t *testing.T) {
	for _, il := range []Interleaving{
		nil,
		{0},
		{7},
		{3, 0, 2, 1},
		{10, 9, 11, 100, 99, 1000},
		{0, 12, 3, 123456789, 23},
		{-1, 5}, // never recorded, but %d rendered it
	} {
		var want strings.Builder
		for i, id := range il {
			if i > 0 {
				want.WriteByte(',')
			}
			fmt.Fprintf(&want, "%d", int(id))
		}
		if got := il.Key(); got != want.String() {
			t.Errorf("Key(%v) = %q, fmt renders %q", []event.ID(il), got, want.String())
		}
	}
}

func TestUnitLabel(t *testing.T) {
	if got := (Unit{Events: []event.ID{3}}).Label(); got != "3" {
		t.Fatalf("Label = %q", got)
	}
	if got := (Unit{Events: []event.ID{3, 4}}).Label(); got != "(3 4)" {
		t.Fatalf("Label = %q", got)
	}
}

func TestNextPermutationProperty(t *testing.T) {
	// Property: for random small n, iterating from identity enumerates
	// exactly n! distinct permutations.
	f := func(raw uint8) bool {
		n := int(raw%5) + 1 // 1..5
		p := identityPerm(n)
		count := 0
		seen := map[string]bool{}
		for {
			key := ""
			for _, x := range p {
				key += string(rune('0' + x))
			}
			if seen[key] {
				return false
			}
			seen[key] = true
			count++
			changed, ok := nextPermutation(p)
			if !ok {
				break
			}
			// The pivot contract incremental filters rely on: everything
			// before changedFrom is untouched, and p[changedFrom] differs.
			for i := 0; i < changed; i++ {
				if key[i] != byte('0'+p[i]) {
					return false
				}
			}
			if key[changed] == byte('0'+p[changed]) {
				return false
			}
		}
		want := Factorial(n)
		return want.IsInt64() && int64(count) == want.Int64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectLimit(t *testing.T) {
	log := testLog(t, 5)
	got := Collect(NewDFS(NewSpace(log)), 7)
	if len(got) != 7 {
		t.Fatalf("Collect limit: got %d, want 7", len(got))
	}
}

func TestUnitTouches(t *testing.T) {
	evs := []event.Event{
		{Kind: event.Update, Replica: "A"},
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"},
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"},
	}
	log, err := event.NewLog(evs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewGroupedSpace(log, []Unit{
		{Events: []event.ID{1, 2}},
		{Events: []event.ID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.UnitTouches(0, "B") {
		t.Error("sync pair unit touches receiver B")
	}
	if s.UnitTouches(1, "B") {
		t.Error("update at A does not touch B")
	}
}

func TestSpaceUnitsCopy(t *testing.T) {
	log := testLog(t, 3)
	s := NewSpace(log)
	units := s.Units()
	units[0] = Unit{Events: []event.ID{99}}
	fresh := s.Units()
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Events[0] < fresh[j].Events[0] })
	if fresh[0].Events[0] != 0 {
		t.Fatal("Units() must return a copy")
	}
}

// TestDFSNextPivot: after each yield, NextPivot must announce exactly
// where the next yield diverges from the current one (in events), -1
// before the first yield and on the final permutation.
func TestDFSNextPivot(t *testing.T) {
	log := testLog(t, 5)
	d := NewDFS(NewSpace(log))
	if got := d.NextPivot(); got != -1 {
		t.Fatalf("NextPivot before the first yield = %d; want -1", got)
	}
	prev, ok := d.Next()
	if !ok {
		t.Fatal("empty exploration")
	}
	for {
		pivot := d.NextPivot()
		cur, ok := d.Next()
		if !ok {
			if pivot != -1 {
				t.Fatalf("NextPivot on the last permutation = %d; want -1", pivot)
			}
			break
		}
		shared := 0
		for shared < len(prev) && prev[shared] == cur[shared] {
			shared++
		}
		if pivot != shared {
			t.Fatalf("NextPivot = %d, but %v and %v share a %d-event prefix", pivot, prev, cur, shared)
		}
		prev = cur
	}
	if got := d.NextPivot(); got != -1 {
		t.Fatalf("NextPivot after exhaustion = %d; want -1", got)
	}
}
