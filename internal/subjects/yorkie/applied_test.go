package yorkie

import (
	"testing"

	"github.com/er-pi/erpi/internal/crdt"
)

// TestAppliedSetMatchesMap drives the applied set and a plain map through
// the same stamps — dense counters, counters far past what an origin has
// applied, repeats, several origins — and requires the same answers, by
// string and by view, before and after a reset.
func TestAppliedSetMatchesMap(t *testing.T) {
	var a appliedSet
	want := make(map[crdt.Time]bool)
	stamps := []crdt.Time{
		{Counter: 1, Replica: "A"}, {Counter: 2, Replica: "B"}, {Counter: 3, Replica: "A"},
		{Counter: 1 << 40, Replica: "A"}, {Counter: 700, Replica: "B"}, {Counter: 64, Replica: "A"},
		{Counter: 3, Replica: "A"}, {Counter: 0, Replica: ""}, {Counter: 130, Replica: "C"},
	}
	probe := append([]crdt.Time{{Counter: 2, Replica: "A"}, {Counter: 1<<40 + 1, Replica: "A"}, {Counter: 700, Replica: "A"}}, stamps...)
	check := func(when string) {
		t.Helper()
		for _, st := range probe {
			if got := isApplied(&a, st.Counter, st.Replica); got != want[st] {
				t.Errorf("%s: isApplied(%v) = %v, want %v", when, st, got, want[st])
			}
			if got := isApplied(&a, st.Counter, []byte(st.Replica)); got != want[st] {
				t.Errorf("%s: isApplied(%v) by view = %v, want %v", when, st, got, want[st])
			}
		}
	}
	for i, st := range stamps {
		a.add(st)
		want[st] = true
		check("after add " + st.String())
		if i == 4 {
			for _, o := range a.origins {
				if len(o.bits) > 2*o.n+9 {
					t.Fatalf("origin %q holds %d stamps in %d words", o.replica, o.n, len(o.bits))
				}
			}
		}
	}
	a.reset()
	clear(want)
	check("after reset")
}
