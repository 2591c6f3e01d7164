package crdt

import (
	"slices"
	"sort"
)

// GSet is a grow-only set of strings; join is set union.
type GSet struct {
	members map[string]struct{}
}

// NewGSet returns an empty grow-only set.
func NewGSet() *GSet {
	return &GSet{members: make(map[string]struct{})}
}

// Add inserts an element. Returns false if it was already present (the
// "failed op" of the paper's Figure 6).
func (g *GSet) Add(elem string) bool {
	if _, ok := g.members[elem]; ok {
		return false
	}
	g.members[elem] = struct{}{}
	return true
}

// Contains reports membership.
func (g *GSet) Contains(elem string) bool {
	_, ok := g.members[elem]
	return ok
}

// Len returns the number of elements.
func (g *GSet) Len() int { return len(g.members) }

// Elements returns the members in sorted order.
func (g *GSet) Elements() []string {
	out := make([]string, 0, len(g.members))
	for e := range g.members {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Merge joins another set into this one.
func (g *GSet) Merge(other *GSet) {
	for e := range other.members {
		g.members[e] = struct{}{}
	}
}

// Clone returns an independent copy.
func (g *GSet) Clone() *GSet {
	out := NewGSet()
	for e := range g.members {
		out.members[e] = struct{}{}
	}
	return out
}

// Equal reports state identity.
func (g *GSet) Equal(other *GSet) bool {
	if len(g.members) != len(other.members) {
		return false
	}
	for e := range g.members {
		if _, ok := other.members[e]; !ok {
			return false
		}
	}
	return true
}

// TwoPhaseSet supports removal with remove-wins semantics: a removed
// element can never be re-added (its tombstone persists).
type TwoPhaseSet struct {
	added   *GSet
	removed *GSet
}

// NewTwoPhaseSet returns an empty 2P-set.
func NewTwoPhaseSet() *TwoPhaseSet {
	return &TwoPhaseSet{added: NewGSet(), removed: NewGSet()}
}

// Add inserts an element; fails (returns false) if the element was already
// added or is tombstoned.
func (s *TwoPhaseSet) Add(elem string) bool {
	if s.removed.Contains(elem) {
		return false
	}
	return s.added.Add(elem)
}

// Remove tombstones an element; fails if it is not currently present.
func (s *TwoPhaseSet) Remove(elem string) bool {
	if !s.Contains(elem) {
		return false
	}
	return s.removed.Add(elem)
}

// Contains reports live membership.
func (s *TwoPhaseSet) Contains(elem string) bool {
	return s.added.Contains(elem) && !s.removed.Contains(elem)
}

// Elements returns the live members in sorted order.
func (s *TwoPhaseSet) Elements() []string {
	var out []string
	for _, e := range s.added.Elements() {
		if !s.removed.Contains(e) {
			out = append(out, e)
		}
	}
	return out
}

// Merge joins another 2P-set into this one.
func (s *TwoPhaseSet) Merge(other *TwoPhaseSet) {
	s.added.Merge(other.added)
	s.removed.Merge(other.removed)
}

// Clone returns an independent copy.
func (s *TwoPhaseSet) Clone() *TwoPhaseSet {
	return &TwoPhaseSet{added: s.added.Clone(), removed: s.removed.Clone()}
}

// Equal reports state identity.
func (s *TwoPhaseSet) Equal(other *TwoPhaseSet) bool {
	return s.added.Equal(other.added) && s.removed.Equal(other.removed)
}

// ORSet is an observed-remove set: adds create unique tags; removes delete
// only the tags observed at the removing replica, so a concurrent re-add
// survives (add-wins).
type ORSet struct {
	// live maps element -> set of add tags currently alive.
	live map[string]map[Time]struct{}
	// tombs maps removed tags so that merges do not resurrect them.
	tombs map[Time]struct{}
	keys  []string // AppendBinary's sort scratch, with times
	times []Time
	// ViewBinary's merge scratch.
	inLive  []tagView
	inTombs []TimeView
	// free holds emptied tag sets for the next element that appears.
	free []map[Time]struct{}
}

// NewORSet returns an empty OR-set.
func NewORSet() *ORSet {
	return &ORSet{
		live:  make(map[string]map[Time]struct{}),
		tombs: make(map[Time]struct{}),
	}
}

// tagSet returns an empty tag set, reusing a freed one.
func (s *ORSet) tagSet() map[Time]struct{} {
	n := len(s.free)
	if n == 0 {
		return make(map[Time]struct{})
	}
	tags := s.free[n-1]
	s.free = s.free[:n-1]
	return tags
}

// drop removes elem and frees its tag set.
func (s *ORSet) drop(elem string, tags map[Time]struct{}) {
	delete(s.live, elem)
	clear(tags)
	s.free = append(s.free, tags)
}

// Add inserts elem with a fresh tag from the clock.
func (s *ORSet) Add(clock *Clock, elem string) Time {
	tag := clock.Now()
	if s.live[elem] == nil {
		s.live[elem] = s.tagSet()
	}
	s.live[elem][tag] = struct{}{}
	return tag
}

// Remove deletes every currently observed tag of elem. Returns false when
// the element is absent (a failed op).
func (s *ORSet) Remove(elem string) bool {
	tags, ok := s.live[elem]
	if !ok || len(tags) == 0 {
		return false
	}
	for tag := range tags {
		s.tombs[tag] = struct{}{}
	}
	s.drop(elem, tags)
	return true
}

// Contains reports live membership.
func (s *ORSet) Contains(elem string) bool {
	return len(s.live[elem]) > 0
}

// Elements returns the live members in sorted order.
func (s *ORSet) Elements() []string { return s.SortedElements(nil) }

// SortedElements overwrites dst with the live elements, ascending.
func (s *ORSet) SortedElements(dst []string) []string {
	dst = dst[:0]
	for e, tags := range s.live {
		if len(tags) > 0 {
			dst = append(dst, e)
		}
	}
	slices.Sort(dst)
	return dst
}

// Merge joins another OR-set into this one: union of tags minus union of
// tombstones.
func (s *ORSet) Merge(other *ORSet) {
	for tag := range other.tombs {
		s.tombs[tag] = struct{}{}
	}
	for elem, tags := range other.live {
		for tag := range tags {
			if _, dead := s.tombs[tag]; dead {
				continue
			}
			if s.live[elem] == nil {
				s.live[elem] = s.tagSet()
			}
			s.live[elem][tag] = struct{}{}
		}
	}
	s.sweep()
}

// sweep drops the live tags that tombstones kill, and the elements left
// without one.
func (s *ORSet) sweep() {
	for elem, tags := range s.live {
		for tag := range tags {
			if _, dead := s.tombs[tag]; dead {
				delete(tags, tag)
			}
		}
		if len(tags) == 0 {
			s.drop(elem, tags)
		}
	}
}

// Clone returns an independent copy.
func (s *ORSet) Clone() *ORSet {
	out := NewORSet()
	for elem, tags := range s.live {
		cp := make(map[Time]struct{}, len(tags))
		for tag := range tags {
			cp[tag] = struct{}{}
		}
		out.live[elem] = cp
	}
	for tag := range s.tombs {
		out.tombs[tag] = struct{}{}
	}
	return out
}

// Equal reports state identity (live tags and tombstones).
func (s *ORSet) Equal(other *ORSet) bool {
	if len(s.tombs) != len(other.tombs) || len(s.live) != len(other.live) {
		return false
	}
	for tag := range s.tombs {
		if _, ok := other.tombs[tag]; !ok {
			return false
		}
	}
	for elem, tags := range s.live {
		otags, ok := other.live[elem]
		if !ok || len(otags) != len(tags) {
			return false
		}
		for tag := range tags {
			if _, ok := otags[tag]; !ok {
				return false
			}
		}
	}
	return true
}
