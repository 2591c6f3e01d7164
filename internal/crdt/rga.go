package crdt

import (
	"errors"
	"slices"
)

// Expected RGA failures, which replay meets as failed ops.
var (
	ErrRGAUnknownElement = errors.New("crdt: rga element unknown or removed")
	ErrRGAIndex          = errors.New("crdt: rga index out of range")
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
	// chunk is where new elements are carved from. A full chunk is
	// replaced, never grown, so every *rgaElem in elems stays valid; Reset
	// rewinds it, because then nothing points into it any more.
	chunk []rgaElem
	// visible caches the linearization while fresh is set; every write to
	// elems or to an element's Removed flag clears fresh. sorted is the
	// scratch linearize, resolveRoots and AppendBinary sort in; in is
	// ViewBinary's merge scratch. None of them is state.
	visible []Time
	sorted  []*rgaElem
	in      []elemView
	fresh   bool
}

// Elements are carved from chunks of rgaChunkMin, doubling per chunk up
// to rgaChunkMax: a short list pays one small allocation, a long one an
// allocation per rgaChunkMax elements.
const (
	rgaChunkMin = 4
	rgaChunkMax = 32
)

// newElem returns a pointer to a copy of el carved from the chunk.
func (r *RGA) newElem(el rgaElem) *rgaElem {
	if len(r.chunk) == cap(r.chunk) {
		r.chunk = make([]rgaElem, 0, min(max(2*cap(r.chunk), rgaChunkMin), rgaChunkMax))
	}
	r.chunk = append(r.chunk, el)
	return &r.chunk[len(r.chunk)-1]
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
			return Time{}, ErrRGAUnknownElement
		}
	}
	id := clock.Now()
	r.elems[id] = r.newElem(rgaElem{ID: id, Origin: origin, Value: value, Root: id})
	r.fresh = false
	return id, nil
}

// InsertAt inserts value so that it becomes the idx-th visible element
// (0 = front). Returns the new element's ID.
func (r *RGA) InsertAt(clock *Clock, idx int, value string) (Time, error) {
	visible := r.visibleIDs()
	if idx < 0 || idx > len(visible) {
		return Time{}, ErrRGAIndex
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
	r.fresh = false
	return true
}

// Move relocates the element with ID id to come after the element `after`
// using the NAIVE delete+insert strategy: the relocated copy gets a fresh
// identity, so concurrent moves of the same element each create a copy —
// the duplication hazard of misconception #3. Returns the relocated
// element's new ID.
func (r *RGA) Move(clock *Clock, id, after Time) (Time, error) {
	if !r.Delete(id) {
		return Time{}, ErrRGAUnknownElement
	}
	return r.InsertAfter(clock, after, r.elems[id].Value)
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
		return Time{}, ErrRGAUnknownElement
	}
	newID := clock.Now()
	r.elems[newID] = r.newElem(rgaElem{ID: newID, Origin: after, Value: el.Value, Root: el.Root})
	r.fresh = false
	r.resolveRoots()
	return newID, nil
}

// Reset empties the sequence, keeping its storage.
func (r *RGA) Reset() {
	clear(r.elems)
	clear(r.chunk) // drop the strings the old elements hold
	r.chunk = r.chunk[:0]
	r.fresh = false
}

// AppendValues appends the visible values in list order, sep between them.
func (r *RGA) AppendValues(b []byte, sep string) []byte {
	for i, id := range r.visibleIDs() {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, r.elems[id].Value...)
	}
	return b
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
		return Time{}, ErrRGAIndex
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
		r.elems[id] = r.newElem(*oe)
	}
	r.resolveRoots()
	r.fresh = false
}

// resolveRoots keeps only the highest-ID live element per root identity,
// implementing the winning-position rule for MoveWins: it sorts the live
// elements by root, highest ID first, and removes all but the first of
// each root's run.
func (r *RGA) resolveRoots() {
	live := r.sorted[:0]
	for _, el := range r.elems {
		if !el.Removed {
			live = append(live, el)
		}
	}
	slices.SortFunc(live, func(a, b *rgaElem) int {
		if c := a.Root.Compare(b.Root); c != 0 {
			return c
		}
		return b.ID.Compare(a.ID)
	})
	for i := 1; i < len(live); i++ {
		if live[i].Root == live[i-1].Root {
			live[i].Removed = true
			r.fresh = false
		}
	}
	r.sorted = live
}

// Clone returns an independent copy.
func (r *RGA) Clone() *RGA {
	out := NewRGA()
	for id, el := range r.elems {
		out.elems[id] = out.newElem(*el)
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

// visibleIDs returns the cached linearization, which callers must not
// keep past the next mutation.
func (r *RGA) visibleIDs() []Time {
	if !r.fresh {
		r.linearize()
	}
	return r.visible
}

// linearize orders the sequence: depth-first from the head, siblings in
// descending ID order (the RGA rule), skipping tombstones. It sorts every
// element by (origin, ID descending), which makes each element's children
// one contiguous run of sorted.
func (r *RGA) linearize() {
	r.sorted = r.sorted[:0]
	for _, el := range r.elems {
		r.sorted = append(r.sorted, el)
	}
	slices.SortFunc(r.sorted, func(a, b *rgaElem) int {
		if c := a.Origin.Compare(b.Origin); c != 0 {
			return c
		}
		return b.ID.Compare(a.ID)
	})
	r.visible = r.walk(r.visible[:0], HeadID)
	r.fresh = true
}

// walk appends origin's visible descendants in list order.
func (r *RGA) walk(out []Time, origin Time) []Time {
	i, _ := slices.BinarySearchFunc(r.sorted, origin, func(el *rgaElem, t Time) int { return el.Origin.Compare(t) })
	for ; i < len(r.sorted) && r.sorted[i].Origin == origin; i++ {
		el := r.sorted[i]
		if !el.Removed {
			out = append(out, el.ID)
		}
		out = r.walk(out, el.ID)
	}
	return out
}
