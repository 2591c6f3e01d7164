package crdt

import (
	"errors"
	"slices"

	"github.com/er-pi/erpi/internal/wire"
)

// This file gives the CRDTs on the replay hot path — the ones the yorkie
// and crdts subjects snapshot and ship on every explored interleaving —
// a canonical binary form over internal/wire (DESIGN.md §4.16). The
// encodings expose exactly the join-relevant state (including
// tombstones), so decode(encode(x)) is join-equivalent to x, and equal
// states always encode to identical bytes: map keys are written in
// ascending order and timestamps in Time order.
//
// AppendBinary appends the encoding to b. ReadBinary replaces the
// receiver's state with the next encoding in r, reusing its storage;
// failures stick to r, and after one the receiver holds garbage — decode
// into a spare value and swap it in once r.Done() returned nil.
//
// A merge never builds the remote value: validate by view, then merge.
// ViewBinary reads the next encoding by view (wire.Reader.View) into the
// receiver's merge scratch and leaves its state alone; once r.Done()
// returned nil, MergeView joins what it read, copying out of the payload
// only what the receiver does not hold yet. Until then the payload must
// not change. MergeBinary is the two steps for an input that holds one
// encoding and nothing else.

// minTimeBytes is the encoded size of the zero Time.
const minTimeBytes = 2

// AppendBinary appends counter, then replica.
func (t Time) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, t.Counter)
	return wire.AppendString(b, t.Replica)
}

// ReadTime reads one Time.
func ReadTime(r *wire.Reader) Time { return ReadTimeView(r).Time() }

// TimeView is a Time decoded by view (wire.Reader.View): a decoder looks
// m[v.Time()] up, which copies nothing to the heap, before keeping it.
type TimeView struct {
	Counter uint64
	Replica []byte
}

// ReadTimeView reads one Time by view.
func ReadTimeView(r *wire.Reader) TimeView {
	return TimeView{Counter: r.Uvarint(), Replica: r.View()}
}

// Time copies the view into a Time.
func (v TimeView) Time() Time { return Time{Counter: v.Counter, Replica: string(v.Replica)} }

func appendTimeSet(b []byte, set map[Time]struct{}, ts *[]Time) []byte {
	*ts = (*ts)[:0]
	for t := range set {
		*ts = append(*ts, t)
	}
	slices.SortFunc(*ts, Time.Compare)
	b = wire.AppendUvarint(b, uint64(len(*ts)))
	for _, t := range *ts {
		b = t.AppendBinary(b)
	}
	return b
}

// readTimeSet decodes what appendTimeSet wrote into set, cleared first (a
// nil set is made).
func readTimeSet(r *wire.Reader, set map[Time]struct{}) map[Time]struct{} {
	n := r.Count(minTimeBytes)
	if set == nil {
		set = make(map[Time]struct{}, n)
	}
	clear(set)
	for i := 0; i < n; i++ {
		set[ReadTime(r)] = struct{}{}
	}
	return set
}

func appendTimeMap(b []byte, m map[string]Time, keys *[]string) []byte {
	b = wire.AppendUvarint(b, uint64(len(m)))
	*keys = wire.SortedKeys(*keys, m)
	for _, k := range *keys {
		b = wire.AppendString(b, k)
		b = m[k].AppendBinary(b)
	}
	return b
}

// readTimeMap decodes what appendTimeMap wrote into m, cleared first (a
// nil m is made).
func readTimeMap(r *wire.Reader, m map[string]Time) map[string]Time {
	n := r.Count(1 + minTimeBytes)
	if m == nil {
		m = make(map[string]Time, n)
	}
	clear(m)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = ReadTime(r)
	}
	return m
}

// viewMerger is a CRDT that merges by view; mergeBinary is its
// MergeBinary.
type viewMerger interface {
	ViewBinary(r *wire.Reader)
	MergeView()
}

func mergeBinary(m viewMerger, r *wire.Reader) error {
	m.ViewBinary(r)
	if err := r.Done(); err != nil {
		return err
	}
	m.MergeView()
	return nil
}

// AppendBinary appends the per-replica counts, replicas ascending.
func (g *GCounter) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(g.counts)))
	g.keys = wire.SortedKeys(g.keys, g.counts)
	for _, rep := range g.keys {
		b = wire.AppendString(b, rep)
		b = wire.AppendUvarint(b, g.counts[rep])
	}
	return b
}

// ReadBinary decodes what AppendBinary wrote.
func (g *GCounter) ReadBinary(r *wire.Reader) {
	n := r.Count(2)
	if g.counts == nil {
		g.counts = make(map[string]uint64, n)
	}
	clear(g.counts)
	for i := 0; i < n; i++ {
		rep := r.String()
		g.counts[rep] = r.Uvarint()
	}
}

// countView is one decoded component of a GCounter encoding.
type countView struct {
	replica []byte
	count   uint64
}

// ViewBinary reads the next encoding into g's merge scratch.
func (g *GCounter) ViewBinary(r *wire.Reader) {
	g.in = g.in[:0]
	for n := r.Count(2); n > 0; n-- {
		g.in = append(g.in, countView{replica: r.View(), count: r.Uvarint()})
	}
}

// MergeView joins what ViewBinary read (component-wise max).
func (g *GCounter) MergeView() {
	for _, c := range g.in {
		if c.count > g.counts[string(c.replica)] {
			g.counts[string(c.replica)] = c.count
		}
	}
}

// MergeBinary joins the encoding r holds into g; on an error g is
// unchanged.
func (g *GCounter) MergeBinary(r *wire.Reader) error { return mergeBinary(g, r) }

// AppendBinary appends the increment counter, then the decrement counter.
func (p *PNCounter) AppendBinary(b []byte) []byte {
	return p.neg.AppendBinary(p.pos.AppendBinary(b))
}

// ReadBinary decodes what AppendBinary wrote.
func (p *PNCounter) ReadBinary(r *wire.Reader) {
	if p.pos == nil {
		p.pos, p.neg = &GCounter{}, &GCounter{}
	}
	p.pos.ReadBinary(r)
	p.neg.ReadBinary(r)
}

// ViewBinary reads the next encoding into p's merge scratch.
func (p *PNCounter) ViewBinary(r *wire.Reader) {
	p.pos.ViewBinary(r)
	p.neg.ViewBinary(r)
}

// MergeView joins what ViewBinary read.
func (p *PNCounter) MergeView() {
	p.pos.MergeView()
	p.neg.MergeView()
}

// MergeBinary joins the encoding r holds into p; on an error p is
// unchanged.
func (p *PNCounter) MergeBinary(r *wire.Reader) error { return mergeBinary(p, r) }

// AppendBinary appends the live elements (ascending, each with its add
// tags in Time order), then the tombstoned tags in Time order.
func (s *ORSet) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(s.live)))
	s.keys = wire.SortedKeys(s.keys, s.live)
	for _, elem := range s.keys {
		b = wire.AppendString(b, elem)
		b = appendTimeSet(b, s.live[elem], &s.times)
	}
	return appendTimeSet(b, s.tombs, &s.times)
}

// ReadBinary decodes what AppendBinary wrote.
func (s *ORSet) ReadBinary(r *wire.Reader) {
	n := r.Count(2)
	if s.live == nil {
		s.live = make(map[string]map[Time]struct{}, n)
	}
	for elem, tags := range s.live {
		s.drop(elem, tags)
	}
	for i := 0; i < n; i++ {
		elem := r.String()
		s.live[elem] = readTimeSet(r, s.tagSet())
	}
	s.tombs = readTimeSet(r, s.tombs)
}

// tagView is one decoded live tag of an ORSet encoding with its element.
type tagView struct {
	elem []byte
	tag  TimeView
}

// ViewBinary reads the next encoding into s's merge scratch. An element
// without tags merges nothing and leaves no view.
func (s *ORSet) ViewBinary(r *wire.Reader) {
	s.inLive = s.inLive[:0]
	for n := r.Count(2); n > 0; n-- {
		elem := r.View()
		for t := r.Count(minTimeBytes); t > 0; t-- {
			s.inLive = append(s.inLive, tagView{elem: elem, tag: ReadTimeView(r)})
		}
	}
	s.inTombs = s.inTombs[:0]
	for n := r.Count(minTimeBytes); n > 0; n-- {
		s.inTombs = append(s.inTombs, ReadTimeView(r))
	}
}

// MergeView joins what ViewBinary read, as Merge does: union of tags minus
// union of tombstones. A live tag is never a tombstone and a live element
// never empty, so only a new tombstone can kill a tag the set holds — the
// sweep runs only then.
func (s *ORSet) MergeView() {
	killed := false
	for _, v := range s.inTombs {
		if _, ok := s.tombs[v.Time()]; !ok {
			s.tombs[v.Time()] = struct{}{}
			killed = true
		}
	}
	for _, v := range s.inLive {
		if _, dead := s.tombs[v.tag.Time()]; dead {
			continue
		}
		tags := s.live[string(v.elem)]
		if _, ok := tags[v.tag.Time()]; ok {
			continue
		}
		if tags == nil {
			tags = s.tagSet()
			s.live[string(v.elem)] = tags
		}
		tags[v.tag.Time()] = struct{}{}
	}
	if killed {
		s.sweep()
	}
}

// MergeBinary joins the encoding r holds into s; on an error s is
// unchanged.
func (s *ORSet) MergeBinary(r *wire.Reader) error { return mergeBinary(s, r) }

// AppendBinary appends value, stamp and the set flag.
func (r *LWWRegister) AppendBinary(b []byte) []byte {
	b = wire.AppendString(b, r.value)
	b = r.stamp.AppendBinary(b)
	return wire.AppendBool(b, r.set)
}

// ReadBinary decodes what AppendBinary wrote.
func (r *LWWRegister) ReadBinary(rd *wire.Reader) {
	r.value, r.stamp, r.set = rd.String(), ReadTime(rd), rd.Bool()
}

// AppendBinary appends the registers by ascending key, then the remove
// stamps by ascending key.
func (m *ORMap) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.entries)))
	m.keys = wire.SortedKeys(m.keys, m.entries)
	for _, k := range m.keys {
		b = wire.AppendString(b, k)
		b = m.entries[k].AppendBinary(b)
	}
	return appendTimeMap(b, m.rems, &m.keys)
}

// minEntryBytes is the encoded size of the smallest ORMap entry: an empty
// key and an empty, unset register.
const minEntryBytes = 2 + minTimeBytes + 1

// ReadBinary decodes what AppendBinary wrote.
func (m *ORMap) ReadBinary(r *wire.Reader) {
	n := r.Count(minEntryBytes)
	if m.entries == nil {
		m.entries = make(map[string]*LWWRegister, n)
	}
	for _, reg := range m.entries {
		m.free = append(m.free, reg)
	}
	clear(m.entries)
	for i := 0; i < n; i++ {
		k := r.String()
		reg := m.register(LWWRegister{})
		reg.ReadBinary(r)
		m.entries[k] = reg
	}
	m.rems = readTimeMap(r, m.rems)
}

// entryView is one decoded register of an ORMap encoding.
type entryView struct {
	key, value []byte
	stamp      TimeView
	set        bool
}

// remView is one decoded remove stamp of an ORMap encoding.
type remView struct {
	key   []byte
	stamp TimeView
}

// ViewBinary reads the next encoding into m's merge scratch.
func (m *ORMap) ViewBinary(r *wire.Reader) {
	m.inEntries = m.inEntries[:0]
	for n := r.Count(minEntryBytes); n > 0; n-- {
		m.inEntries = append(m.inEntries, entryView{key: r.View(), value: r.View(), stamp: ReadTimeView(r), set: r.Bool()})
	}
	m.inRems = m.inRems[:0]
	for n := r.Count(1 + minTimeBytes); n > 0; n-- {
		m.inRems = append(m.inRems, remView{key: r.View(), stamp: ReadTimeView(r)})
	}
}

// MergeView joins what ViewBinary read, as Merge does.
func (m *ORMap) MergeView() {
	for _, e := range m.inEntries {
		mine, ok := m.entries[string(e.key)]
		if !ok {
			m.entries[string(e.key)] = m.register(LWWRegister{value: string(e.value), stamp: e.stamp.Time(), set: e.set})
			continue
		}
		if e.set && (!mine.set || mine.stamp.Less(e.stamp.Time())) {
			mine.value, mine.stamp, mine.set = string(e.value), e.stamp.Time(), true
		}
	}
	for _, v := range m.inRems {
		if cur, ok := m.rems[string(v.key)]; !ok || cur.Less(v.stamp.Time()) {
			m.rems[string(v.key)] = v.stamp.Time()
		}
	}
}

// MergeBinary joins the encoding r holds into m; on an error m is
// unchanged.
func (m *ORMap) MergeBinary(r *wire.Reader) error { return mergeBinary(m, r) }

// errRGAHeadElement rejects an element whose ID is HeadID: the head is the
// root every origin chain ends at, and an element in its place would make
// the list its own ancestor.
var errRGAHeadElement = errors.New("crdt: rga element carries the head ID")

// AppendBinary appends the elements (tombstones included) in ID order.
func (r *RGA) AppendBinary(b []byte) []byte {
	els := r.sorted[:0]
	for _, el := range r.elems {
		els = append(els, el)
	}
	slices.SortFunc(els, func(a, b *rgaElem) int { return a.ID.Compare(b.ID) })
	r.sorted = els
	b = wire.AppendUvarint(b, uint64(len(els)))
	for _, el := range els {
		b = el.ID.AppendBinary(b)
		b = el.Origin.AppendBinary(b)
		b = wire.AppendString(b, el.Value)
		b = wire.AppendBool(b, el.Removed)
		b = el.Root.AppendBinary(b)
	}
	return b
}

// minElemBytes is the encoded size of the smallest RGA element: three
// zero Times, an empty value and the removed byte.
const minElemBytes = 3*minTimeBytes + 2

// ReadBinary decodes what AppendBinary wrote.
func (r *RGA) ReadBinary(rd *wire.Reader) {
	n := rd.Count(minElemBytes)
	if r.elems == nil {
		r.elems = make(map[Time]*rgaElem, n)
	}
	r.Reset()
	for i := 0; i < n; i++ {
		el := r.newElem(rgaElem{ID: ReadTime(rd), Origin: ReadTime(rd), Value: rd.String(), Removed: rd.Bool(), Root: ReadTime(rd)})
		if el.ID == HeadID {
			rd.Fail(errRGAHeadElement)
		}
		r.elems[el.ID] = el
	}
}

// elemView is one decoded element of an RGA encoding.
type elemView struct {
	id, origin, root TimeView
	value            []byte
	removed          bool
}

// ViewBinary reads the next encoding into r's merge scratch. An element
// carrying HeadID fails rd, as in ReadBinary.
func (r *RGA) ViewBinary(rd *wire.Reader) {
	r.in = r.in[:0]
	for n := rd.Count(minElemBytes); n > 0; n-- {
		v := elemView{id: ReadTimeView(rd), origin: ReadTimeView(rd), value: rd.View(), removed: rd.Bool(), root: ReadTimeView(rd)}
		if v.id.Counter == 0 && len(v.id.Replica) == 0 {
			rd.Fail(errRGAHeadElement)
		}
		r.in = append(r.in, v)
	}
}

// MergeView joins what ViewBinary read, as Merge does. A merge that adds
// no element and removes none leaves the linearization fresh: roots were
// already resolved, and nothing moved.
func (r *RGA) MergeView() {
	changed := false
	for _, v := range r.in {
		if mine, ok := r.elems[v.id.Time()]; ok {
			if v.removed && !mine.Removed {
				mine.Removed, changed = true, true
			}
			continue
		}
		el := r.newElem(rgaElem{ID: v.id.Time(), Origin: v.origin.Time(), Value: string(v.value), Removed: v.removed, Root: v.root.Time()})
		r.elems[el.ID] = el
		changed = true
	}
	if changed {
		r.resolveRoots()
		r.fresh = false
	}
}

// MergeBinary joins the encoding rd holds into r; on an error r is
// unchanged.
func (r *RGA) MergeBinary(rd *wire.Reader) error { return mergeBinary(r, rd) }
