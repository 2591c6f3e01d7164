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
// receiver's state with the next encoding in r; failures stick to r, and
// after one the receiver holds garbage — decode into a scratch value and
// adopt it once r.Done() returned nil.

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

func readTimeSet(r *wire.Reader) map[Time]struct{} {
	n := r.Count(minTimeBytes)
	set := make(map[Time]struct{}, n)
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

func readTimeMap(r *wire.Reader) map[string]Time {
	n := r.Count(1 + minTimeBytes)
	m := make(map[string]Time, n)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = ReadTime(r)
	}
	return m
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
	g.counts = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		rep := r.String()
		g.counts[rep] = r.Uvarint()
	}
}

// AppendBinary appends the increment counter, then the decrement counter.
func (p *PNCounter) AppendBinary(b []byte) []byte {
	return p.neg.AppendBinary(p.pos.AppendBinary(b))
}

// ReadBinary decodes what AppendBinary wrote.
func (p *PNCounter) ReadBinary(r *wire.Reader) {
	p.pos, p.neg = &GCounter{}, &GCounter{}
	p.pos.ReadBinary(r)
	p.neg.ReadBinary(r)
}

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
	s.live = make(map[string]map[Time]struct{}, n)
	for i := 0; i < n; i++ {
		elem := r.String()
		s.live[elem] = readTimeSet(r)
	}
	s.tombs = readTimeSet(r)
}

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

// ReadBinary decodes what AppendBinary wrote.
func (m *ORMap) ReadBinary(r *wire.Reader) {
	// An entry is at least an empty key and an empty, unset register.
	n := r.Count(2 + minTimeBytes + 1)
	m.entries = make(map[string]*LWWRegister, n)
	for i := 0; i < n; i++ {
		k := r.String()
		reg := &LWWRegister{}
		reg.ReadBinary(r)
		m.entries[k] = reg
	}
	m.rems = readTimeMap(r)
}

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

// ReadBinary decodes what AppendBinary wrote.
func (r *RGA) ReadBinary(rd *wire.Reader) {
	els := make([]rgaElem, rd.Count(3*minTimeBytes+2))
	r.elems = make(map[Time]*rgaElem, len(els))
	r.fresh = false
	for i := range els {
		els[i] = rgaElem{ID: ReadTime(rd), Origin: ReadTime(rd), Value: rd.String(), Removed: rd.Bool(), Root: ReadTime(rd)}
		if els[i].ID == HeadID {
			rd.Fail(errRGAHeadElement)
		}
		r.elems[els[i].ID] = &els[i]
	}
}
