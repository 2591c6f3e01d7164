package crdt

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/wire"
)

// referenceVisibleIDs is the linearization as it was before the RGA cached
// it: a map of sibling lists, each sorted by descending ID, walked
// depth-first from the head. The cache must agree with it after every
// write.
func referenceVisibleIDs(r *RGA) []Time {
	children := make(map[Time][]Time, len(r.elems))
	for id, el := range r.elems {
		children[el.Origin] = append(children[el.Origin], id)
	}
	for _, sibs := range children {
		slices.SortFunc(sibs, func(a, b Time) int { return b.Compare(a) })
	}
	out := make([]Time, 0, len(r.elems))
	var walk func(origin Time)
	walk = func(origin Time) {
		for _, id := range children[origin] {
			if !r.elems[id].Removed {
				out = append(out, id)
			}
			walk(id)
		}
	}
	walk(HeadID)
	return out
}

// TestRGACacheMatchesFreshLinearization drives random sequences over every
// write path — InsertAfter, InsertAt, Delete, Move, MoveWins, Merge,
// ReadBinary, Reset — and Clone, reading between writes so the cache is
// warm when the next write must invalidate it. After each step Len, IDAt,
// Values and AppendValues must equal a fresh linearization.
func TestRGACacheMatchesFreshLinearization(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clocks := []*Clock{NewClock("A"), NewClock("B")}
		r, peer := NewRGA(), NewRGA()
		known := []Time{HeadID}
		pick := func() Time { return known[rng.Intn(len(known))] }
		for step := 0; step < 60; step++ {
			c := clocks[rng.Intn(len(clocks))]
			value := "v" + strconv.Itoa(step)
			var op string
			switch rng.Intn(10) {
			case 0:
				op = "InsertAfter"
				if id, err := r.InsertAfter(c, pick(), value); err == nil {
					known = append(known, id)
				}
			case 1:
				op = "InsertAt"
				if id, err := r.InsertAt(c, rng.Intn(r.Len()+2)-1, value); err == nil {
					known = append(known, id)
				}
			case 2:
				op = "Delete"
				r.Delete(pick())
			case 3:
				op = "Move"
				if id, err := r.Move(c, pick(), pick()); err == nil {
					known = append(known, id)
				}
			case 4:
				op = "MoveWins"
				if id, err := r.MoveWins(c, pick(), pick()); err == nil {
					known = append(known, id)
				}
			case 5:
				op = "peer write, Merge"
				if id, err := peer.InsertAt(clocks[1], rng.Intn(peer.Len()+1), value); err == nil {
					known = append(known, id)
				}
				peer.Delete(pick())
				r.Merge(peer)
			case 6:
				op = "Merge into peer"
				peer.Merge(r)
				r.Merge(peer)
			case 7:
				op = "ReadBinary"
				rd := wire.NewReader(r.AppendBinary(nil))
				r.ReadBinary(rd)
				if err := rd.Done(); err != nil {
					t.Fatal(err)
				}
			case 8:
				op = "Clone"
				r = r.Clone()
			case 9:
				op = "Reset"
				if rng.Intn(4) == 0 {
					r.Reset()
				}
			}
			want := referenceVisibleIDs(r)
			if r.Len() != len(want) {
				t.Fatalf("seed %d step %d (%s): Len %d, fresh linearization has %d", seed, step, op, r.Len(), len(want))
			}
			for i, id := range want {
				if got, err := r.IDAt(i); err != nil || got != id {
					t.Fatalf("seed %d step %d (%s): IDAt(%d) = %v, %v; want %v", seed, step, op, i, got, err, id)
				}
			}
			values := make([]string, len(want))
			for i, id := range want {
				values[i] = r.elems[id].Value
			}
			if got := r.Values(); !reflect.DeepEqual(got, values) && len(values) > 0 {
				t.Fatalf("seed %d step %d (%s): Values %q, want %q", seed, step, op, got, values)
			}
			if got := string(r.AppendValues(nil, ",")); got != strings.Join(values, ",") {
				t.Fatalf("seed %d step %d (%s): AppendValues %q, want %q", seed, step, op, got, strings.Join(values, ","))
			}
		}
	}
}

// TestRGAWarmReadsAllocateNothing: between two mutations the linearization
// is computed once; Len and IDAt then read the cache.
func TestRGAWarmReadsAllocateNothing(t *testing.T) {
	c := NewClock("A")
	r := NewRGA()
	for i := 0; i < 8; i++ {
		if _, err := r.InsertAt(c, i/2, strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Len() // warm
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < r.Len(); i++ {
			if _, err := r.IDAt(i); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Len/IDAt allocate %.1f objects", allocs)
	}
}
