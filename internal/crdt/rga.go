package crdt

import (
	"fmt"
	"slices"
)

// RGA is a replicated growable array (sequence CRDT). Elements carry unique
// timestamp IDs and reference the element they were inserted after;
// siblings with the same origin order by descending ID, which makes
// linearization independent of delivery order.
//
// Move is provided in two flavours:
//   - Move: the naive delete+insert the paper's misconception #3 warns
//     about — concurrent moves of the same element duplicate it.
//   - MoveWins: moves keep the element's root identity and merges keep only
//     the winning position (the highest ID), following Kleppmann's
//     "designate a particular position as winning".
type RGA struct {
	elems map[Time]*rgaElem
}

type rgaElem struct {
	ID      Time
	Origin  Time // zero Time = list head
	Value   string
	Removed bool
	// Root identifies the logical element across MoveWins relocations; for
	// plain inserts Root == ID.
	Root Time
}

// HeadID is the synthetic origin of elements inserted at the front.
var HeadID = Time{}

// NewRGA returns an empty sequence.
func NewRGA() *RGA {
	return &RGA{elems: make(map[Time]*rgaElem)}
}

// InsertAfter inserts value after the element with the given origin ID
// (HeadID for the front) and returns the new element's ID.
func (r *RGA) InsertAfter(clock *Clock, origin Time, value string) (Time, error) {
	if !origin.IsZero() {
		if _, ok := r.elems[origin]; !ok {
			return Time{}, fmt.Errorf("crdt: rga insert after unknown element %s", origin)
		}
	}
	id := clock.Now()
	r.elems[id] = &rgaElem{ID: id, Origin: origin, Value: value, Root: id}
	return id, nil
}

// InsertAt inserts value so that it becomes the idx-th visible element
// (0 = front). Returns the new element's ID.
func (r *RGA) InsertAt(clock *Clock, idx int, value string) (Time, error) {
	visible := r.visibleIDs()
	if idx < 0 || idx > len(visible) {
		return Time{}, fmt.Errorf("crdt: rga insert index %d out of range [0,%d]", idx, len(visible))
	}
	origin := HeadID
	if idx > 0 {
		origin = visible[idx-1]
	}
	return r.InsertAfter(clock, origin, value)
}

// Delete tombstones the element with the given ID. Returns false when the
// element is unknown or already removed (a failed op).
func (r *RGA) Delete(id Time) bool {
	el, ok := r.elems[id]
	if !ok || el.Removed {
		return false
	}
	el.Removed = true
	return true
}

// Move relocates the element with ID id to come after the element `after`
// using the NAIVE delete+insert strategy: the relocated copy gets a fresh
// identity, so concurrent moves of the same element each create a copy —
// the duplication hazard of misconception #3. Returns the relocated
// element's new ID.
func (r *RGA) Move(clock *Clock, id, after Time) (Time, error) {
	el, ok := r.elems[id]
	if !ok || el.Removed {
		return Time{}, fmt.Errorf("crdt: rga move of missing element %s", id)
	}
	value := el.Value
	if !r.Delete(id) {
		return Time{}, fmt.Errorf("crdt: rga move could not delete %s", id)
	}
	return r.InsertAfter(clock, after, value)
}

// MoveWins relocates an element while preserving its root identity: it
// adds a new placement element for the root and re-resolves winners, so
// exactly one placement per root stays live — the one with the highest ID,
// regardless of the order moves are applied in. This makes MoveWins safe
// for both state-based merge and op-based replay. The source element may
// already be superseded (a concurrent move won); the relocation still
// enters the placement contest. Returns the new placement's ID.
func (r *RGA) MoveWins(clock *Clock, id, after Time) (Time, error) {
	el, ok := r.elems[id]
	if !ok {
		return Time{}, fmt.Errorf("crdt: rga move of unknown element %s", id)
	}
	newID := clock.Now()
	r.elems[newID] = &rgaElem{ID: newID, Origin: after, Value: el.Value, Root: el.Root}
	r.resolveRoots()
	return newID, nil
}

// Values returns the visible values in list order.
func (r *RGA) Values() []string {
	ids := r.visibleIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = r.elems[id].Value
	}
	return out
}

// Len returns the number of visible elements.
func (r *RGA) Len() int { return len(r.visibleIDs()) }

// IDAt returns the ID of the idx-th visible element.
func (r *RGA) IDAt(idx int) (Time, error) {
	ids := r.visibleIDs()
	if idx < 0 || idx >= len(ids) {
		return Time{}, fmt.Errorf("crdt: rga index %d out of range", idx)
	}
	return ids[idx], nil
}

// Merge joins another RGA into this one: union elements by ID, tombstones
// win, and MoveWins roots collapse to the winning position.
func (r *RGA) Merge(other *RGA) {
	for id, oe := range other.elems {
		if mine, ok := r.elems[id]; ok {
			mine.Removed = mine.Removed || oe.Removed
			continue
		}
		cp := *oe
		r.elems[id] = &cp
	}
	r.resolveRoots()
}

// resolveRoots keeps only the highest-ID live element per root identity,
// implementing the winning-position rule for MoveWins.
func (r *RGA) resolveRoots() {
	winners := make(map[Time]Time)
	for id, el := range r.elems {
		if el.Removed {
			continue
		}
		if best, ok := winners[el.Root]; !ok || best.Less(id) {
			winners[el.Root] = id
		}
	}
	for id, el := range r.elems {
		if el.Removed {
			continue
		}
		if winners[el.Root] != id {
			el.Removed = true
		}
	}
}

// LiveByRoot returns the currently live element carrying the given root
// identity (the element a MoveWins relocation preserved).
func (r *RGA) LiveByRoot(root Time) (Time, bool) {
	var best Time
	found := false
	for id, el := range r.elems {
		if el.Removed || el.Root != root {
			continue
		}
		if !found || best.Less(id) {
			best, found = id, true
		}
	}
	return best, found
}

// Clone returns an independent copy.
func (r *RGA) Clone() *RGA {
	out := NewRGA()
	for id, el := range r.elems {
		cp := *el
		out.elems[id] = &cp
	}
	return out
}

// Equal reports state identity (including tombstones).
func (r *RGA) Equal(other *RGA) bool {
	if len(r.elems) != len(other.elems) {
		return false
	}
	for id, el := range r.elems {
		oe, ok := other.elems[id]
		if !ok || *oe != *el {
			return false
		}
	}
	return true
}

// visibleIDs linearizes the sequence: depth-first from the head, siblings
// in descending ID order (the RGA rule), skipping tombstones.
func (r *RGA) visibleIDs() []Time {
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
