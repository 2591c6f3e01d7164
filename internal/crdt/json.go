package crdt

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// JSONDoc is a convergent JSON-like document: nested string-keyed objects
// with primitive string leaves, modelling the document CRDT of the Yorkie
// subject.
//
// Convergence design: each entry holds INDEPENDENT last-writer-wins
// components — a primitive register (primStamp/prim), an object presence
// stamp (objStamp), a delete stamp (delStamp), and a child map that is
// never discarded. The rendered view is derived from the stamps:
//
//   - an entry is visible iff max(primStamp, objStamp) is newer than
//     delStamp;
//   - a visible entry renders as an object iff objStamp ≥ primStamp
//     (objects win exact ties), else as its primitive value;
//   - writes beneath a path raise every ancestor's objStamp to the write's
//     stamp, so the parent's stamp is the max over its subtree regardless
//     of arrival order.
//
// Because every component updates by max/LWW and children are retained
// under temporarily-hidden entries, applying any set of operations in any
// order — op-based or via Merge — produces the same state: the strong
// eventual consistency property the subject property tests pin.
type JSONDoc struct {
	root *jsonObject
}

type jsonObject struct {
	fields map[string]*jsonEntry
}

type jsonEntry struct {
	prim      string
	primStamp Time
	objStamp  Time
	delStamp  Time
	children  *jsonObject
}

func newJSONObject() *jsonObject {
	return &jsonObject{fields: make(map[string]*jsonEntry)}
}

func (e *jsonEntry) ensureChildren() *jsonObject {
	if e.children == nil {
		e.children = newJSONObject()
	}
	return e.children
}

// visible reports whether the entry renders at all.
func (e *jsonEntry) visible() bool {
	live := e.primStamp
	if live.Less(e.objStamp) {
		live = e.objStamp
	}
	return e.delStamp.Less(live)
}

// isObject reports whether a visible entry renders as an object.
func (e *jsonEntry) isObject() bool {
	return !e.objStamp.IsZero() && !e.objStamp.Less(e.primStamp)
}

// NewJSONDoc returns an empty document.
func NewJSONDoc() *JSONDoc {
	return &JSONDoc{root: newJSONObject()}
}

// Reset empties the document.
func (d *JSONDoc) Reset() { clear(d.root.fields) }

// Set writes a primitive value at the path (each element one object key),
// raising ancestor object stamps as it descends.
func (d *JSONDoc) Set(path []string, value string, t Time) error {
	if len(path) == 0 {
		return fmt.Errorf("crdt: json set with empty path")
	}
	e := d.descend(path, t)
	if e.primStamp.Less(t) {
		e.prim, e.primStamp = value, t
	}
	return nil
}

// SetObject ensures an object renders at path.
func (d *JSONDoc) SetObject(path []string, t Time) error {
	if len(path) == 0 {
		return fmt.Errorf("crdt: json set-object with empty path")
	}
	e := d.descend(path, t)
	if e.objStamp.Less(t) {
		e.objStamp = t
	}
	return nil
}

// Delete tombstones the entry at path when t is newer than its content.
func (d *JSONDoc) Delete(path []string, t Time) error {
	if len(path) == 0 {
		return fmt.Errorf("crdt: json delete with empty path")
	}
	e := d.descend(path, Time{})
	if e.delStamp.Less(t) {
		e.delStamp = t
	}
	return nil
}

// descend walks/creates the entry at path, raising every traversed
// ancestor's objStamp to t (zero t leaves stamps untouched).
func (d *JSONDoc) descend(path []string, t Time) *jsonEntry {
	obj := d.root
	var e *jsonEntry
	for i, key := range path {
		var ok bool
		e, ok = obj.fields[key]
		if !ok {
			e = &jsonEntry{}
			obj.fields[key] = e
		}
		if i < len(path)-1 {
			// An intermediate node is implicitly an object as of time t.
			if e.objStamp.Less(t) {
				e.objStamp = t
			}
			obj = e.ensureChildren()
		}
	}
	return e
}

// lookup returns the entry at path as the VIEW sees it: every ancestor
// must be visible and render as an object, matching Snapshot's cascading
// of hidden subtrees. Returns nil when the path does not render.
func (d *JSONDoc) lookup(path []string) *jsonEntry {
	obj := d.root
	var e *jsonEntry
	for i, key := range path {
		var ok bool
		e, ok = obj.fields[key]
		if !ok {
			return nil
		}
		if i < len(path)-1 {
			if !e.visible() || !e.isObject() || e.children == nil {
				return nil
			}
			obj = e.children
		}
	}
	return e
}

// Get returns the primitive value at path when the entry is visible and
// renders as a primitive.
func (d *JSONDoc) Get(path []string) (string, bool) {
	if len(path) == 0 {
		return "", false
	}
	e := d.lookup(path)
	if e == nil || !e.visible() || e.isObject() {
		return "", false
	}
	return e.prim, true
}

// Keys returns the sorted visible keys of the object at path (nil path =
// the root object). It returns nil when no visible object renders there.
func (d *JSONDoc) Keys(path []string) []string {
	obj := d.root
	if len(path) > 0 {
		e := d.lookup(path)
		if e == nil || !e.visible() || !e.isObject() {
			return nil
		}
		if e.children == nil {
			return []string{}
		}
		obj = e.children
	}
	out := make([]string, 0, len(obj.fields))
	for k, e := range obj.fields {
		if e.visible() {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Merge joins another document into this one: every component is a max /
// LWW register and children merge recursively.
func (d *JSONDoc) Merge(other *JSONDoc) {
	mergeObjects(d.root, other.root)
}

func mergeObjects(dst, src *jsonObject) {
	for key, se := range src.fields {
		de, ok := dst.fields[key]
		if !ok {
			de = &jsonEntry{}
			dst.fields[key] = de
		}
		if de.primStamp.Less(se.primStamp) {
			de.prim, de.primStamp = se.prim, se.primStamp
		}
		if de.objStamp.Less(se.objStamp) {
			de.objStamp = se.objStamp
		}
		if de.delStamp.Less(se.delStamp) {
			de.delStamp = se.delStamp
		}
		if se.children != nil {
			mergeObjects(de.ensureChildren(), se.children)
		}
	}
}

// Clone returns an independent copy.
func (d *JSONDoc) Clone() *JSONDoc {
	out := NewJSONDoc()
	mergeObjects(out.root, d.root)
	return out
}

// Equal reports full-state identity (stamps and hidden entries included).
func (d *JSONDoc) Equal(other *JSONDoc) bool {
	return objectsEqual(d.root, other.root)
}

func objectsEqual(a, b *jsonObject) bool {
	if len(a.fields) != len(b.fields) {
		return false
	}
	for k, ae := range a.fields {
		be, ok := b.fields[k]
		if !ok {
			return false
		}
		if ae.prim != be.prim || ae.primStamp != be.primStamp ||
			ae.objStamp != be.objStamp || ae.delStamp != be.delStamp {
			return false
		}
		ac, bc := ae.children, be.children
		switch {
		case ac == nil && bc == nil:
		case ac == nil:
			if len(bc.fields) != 0 {
				return false
			}
		case bc == nil:
			if len(ac.fields) != 0 {
				return false
			}
		default:
			if !objectsEqual(ac, bc) {
				return false
			}
		}
	}
	return true
}

// Snapshot renders a canonical single-line representation of the visible
// document values (stamps omitted), useful for assertions and divergence
// reports.
func (d *JSONDoc) Snapshot() string {
	var buf [128]byte
	return string(d.AppendSnapshot(buf[:0]))
}

// AppendSnapshot appends the Snapshot rendering to b.
func (d *JSONDoc) AppendSnapshot(b []byte) []byte { return appendObject(b, d.root) }

func appendObject(b []byte, obj *jsonObject) []byte {
	b = append(b, '{')
	keys := make([]string, 0, len(obj.fields))
	for k, e := range obj.fields {
		if e.visible() {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(strconv.AppendQuote(b, k), ':')
		e := obj.fields[k]
		if e.isObject() {
			if e.children != nil {
				b = appendObject(b, e.children)
			} else {
				b = append(b, "{}"...)
			}
			continue
		}
		b = strconv.AppendQuote(b, e.prim)
	}
	return append(b, '}')
}
