// Package interleave represents and enumerates the interleavings of
// distributed events that ER-π replays.
//
// The package works over units: a unit is either a single event or a group
// of events whose internal order is fixed (produced by the Event Grouping
// pruning, paper Algorithm 1). An interleaving is a permutation of units,
// flattened back into a sequence of event IDs for replay.
//
// Enumeration is lazy. The exhaustive search spaces of the paper's
// evaluation reach 24 events (24! ≈ 6.2·10^23 interleavings), so explorers
// are iterators that produce one interleaving at a time: a lexicographic
// depth-first iterator (the paper's DFS baseline), a random-shuffle
// iterator with a dedup cache (the Rand baseline), and a filtered iterator
// that yields only the canonical representatives surviving ER-π's pruning
// rules.
package interleave

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"github.com/er-pi/erpi/internal/event"
)

// Unit is an atomic schedulable element: one event or a grouped run of
// events whose relative order is fixed.
type Unit struct {
	// Events are the member event IDs in their fixed internal order.
	Events []event.ID
}

// Label renders a unit as "3" or "(3 4)".
func (u Unit) Label() string {
	if len(u.Events) == 1 {
		return fmt.Sprintf("%d", int(u.Events[0]))
	}
	parts := make([]string, len(u.Events))
	for i, id := range u.Events {
		parts[i] = fmt.Sprintf("%d", int(id))
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Interleaving is a complete ordering of all recorded events.
type Interleaving []event.ID

// Key returns a compact string identity usable as a map key and as the
// Datalog fact key for the interleaving.
func (il Interleaving) Key() string {
	var b strings.Builder
	b.Grow(len(il) * 3)
	var digits [20]byte // a 64-bit int in base 10, sign included
	for i, id := range il {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(digits[:0], int64(id), 10))
	}
	return b.String()
}

// Equal reports whether two interleavings order the same events identically.
func (il Interleaving) Equal(other Interleaving) bool {
	if len(il) != len(other) {
		return false
	}
	for i := range il {
		if il[i] != other[i] {
			return false
		}
	}
	return true
}

// Space is the permutation space over a recorded event log partitioned into
// units.
type Space struct {
	log   *event.Log
	units []Unit
}

// NewSpace builds a space in which every event is its own unit (the
// ungrouped space used by the DFS and Rand baselines).
func NewSpace(log *event.Log) *Space {
	units := make([]Unit, log.Len())
	for i := 0; i < log.Len(); i++ {
		units[i] = Unit{Events: []event.ID{event.ID(i)}}
	}
	return &Space{log: log, units: units}
}

// NewGroupedSpace builds a space from explicit units. Every event of the
// log must appear in exactly one unit.
func NewGroupedSpace(log *event.Log, units []Unit) (*Space, error) {
	seen := make(map[event.ID]bool, log.Len())
	for _, u := range units {
		if len(u.Events) == 0 {
			return nil, fmt.Errorf("interleave: empty unit")
		}
		for _, id := range u.Events {
			if int(id) < 0 || int(id) >= log.Len() {
				return nil, fmt.Errorf("interleave: unit references unknown event %d", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("interleave: event %d appears in two units", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != log.Len() {
		return nil, fmt.Errorf("interleave: units cover %d of %d events", len(seen), log.Len())
	}
	cp := make([]Unit, len(units))
	copy(cp, units)
	return &Space{log: log, units: cp}, nil
}

// Log returns the underlying event log.
func (s *Space) Log() *event.Log { return s.log }

// Units returns a copy of the unit partition.
func (s *Space) Units() []Unit {
	out := make([]Unit, len(s.units))
	copy(out, s.units)
	return out
}

// Unit returns unit i without copying the partition. Its Events slice
// is shared — do not mutate it.
func (s *Space) Unit(i int) Unit { return s.units[i] }

// NumUnits returns the number of schedulable units.
func (s *Space) NumUnits() int { return len(s.units) }

// Size returns the total number of interleavings in the space, i.e.
// (number of units)!.
func (s *Space) Size() *big.Int {
	return Factorial(len(s.units))
}

// Flatten expands a unit permutation into the event-ID interleaving.
func (s *Space) Flatten(perm []int) Interleaving {
	n := 0
	for _, u := range s.units {
		n += len(u.Events)
	}
	out := make(Interleaving, 0, n)
	for _, ui := range perm {
		out = append(out, s.units[ui].Events...)
	}
	return out
}

// UnitOf returns the index of the unit containing the given event.
func (s *Space) UnitOf(id event.ID) int {
	for i, u := range s.units {
		for _, e := range u.Events {
			if e == id {
				return i
			}
		}
	}
	return -1
}

// UnitTouches reports whether any event of unit ui touches replica r
// (executes at it or delivers into it).
func (s *Space) UnitTouches(ui int, r event.ReplicaID) bool {
	for _, id := range s.units[ui].Events {
		if s.log.Event(id).Touches(r) {
			return true
		}
	}
	return false
}

// Factorial returns n! as a big integer (n! overflows uint64 beyond n=20,
// and the paper's largest benchmark has 24 events).
func Factorial(n int) *big.Int {
	if n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).MulRange(1, int64(n))
}

// identityPerm returns [0, 1, ..., n-1].
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// nextPermutation advances p to the next lexicographic permutation,
// returning ok=false when p was the last one (descending order). On
// success, changedFrom is the pivot index: the smallest index whose value
// differs from the previous permutation — p[:changedFrom] is untouched,
// which lets incremental filters reuse prefix scans (see
// IncrementalFilter).
func nextPermutation(p []int) (changedFrom int, ok bool) {
	n := len(p)
	i := n - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return 0, false
	}
	j := n - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	reverse(p[i+1:])
	return i, true
}

// skipPrefix advances p past every permutation sharing p's first `keep`
// positions, returning ok=false when no later permutation exists. keep
// must be in [1, len(p)). On success, changedFrom is the smallest index
// whose value differs from p's value before the call; it is always < keep
// (the whole point is to change the prefix), so the suffix reshuffling
// below never widens it.
func skipPrefix(p []int, keep int) (changedFrom int, ok bool) {
	// Arranging the suffix in descending order makes p the last permutation
	// with this prefix; the next lexicographic step changes the prefix.
	// nextPermutation's pivot scan walks through the now-descending suffix
	// into the prefix, so its changedFrom lands in [0, keep).
	suffix := p[keep:]
	sort.Sort(sort.Reverse(sort.IntSlice(suffix)))
	return nextPermutation(p)
}

func reverse(p []int) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}
