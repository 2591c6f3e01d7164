package crdt

import "slices"

// ORMap is an observed-remove map from string keys to LWW registers:
// concurrent puts to the same key resolve by timestamp; removes tombstone
// only the observed write, so a concurrent newer put survives.
type ORMap struct {
	entries map[string]*LWWRegister
	// rems maps key -> timestamp of the latest remove.
	rems map[string]Time
	keys []string // AppendBinary's sort scratch
	// ViewBinary's merge scratch.
	inEntries []entryView
	inRems    []remView
	// free holds the registers ReadBinary dropped, for the next key that
	// appears.
	free []*LWWRegister
}

// NewORMap returns an empty map.
func NewORMap() *ORMap {
	return &ORMap{
		entries: make(map[string]*LWWRegister),
		rems:    make(map[string]Time),
	}
}

// Put writes key=value at time t. Returns whether the write won.
func (m *ORMap) Put(key, value string, t Time) bool {
	reg, ok := m.entries[key]
	if !ok {
		reg = m.register(LWWRegister{})
		m.entries[key] = reg
	}
	return reg.Set(value, t)
}

// register returns a register holding r, reusing a freed one.
func (m *ORMap) register(r LWWRegister) *LWWRegister {
	n := len(m.free)
	if n == 0 {
		return &r
	}
	reg := m.free[n-1]
	m.free = m.free[:n-1]
	*reg = r
	return reg
}

// Remove deletes key at time t. Returns false when the key is not live (a
// failed op).
func (m *ORMap) Remove(key string, t Time) bool {
	if !m.Contains(key) {
		return false
	}
	if cur, ok := m.rems[key]; ok && !cur.Less(t) {
		return false
	}
	m.rems[key] = t
	return true
}

// Contains reports whether key is live: its latest put is newer than its
// latest remove.
func (m *ORMap) Contains(key string) bool {
	reg, ok := m.entries[key]
	if !ok {
		return false
	}
	if _, set := reg.Get(); !set {
		return false
	}
	rem, removed := m.rems[key]
	if !removed {
		return true
	}
	return rem.Less(reg.Stamp())
}

// Get returns the live value for key.
func (m *ORMap) Get(key string) (string, bool) {
	if !m.Contains(key) {
		return "", false
	}
	v, _ := m.entries[key].Get()
	return v, true
}

// Keys returns the live keys in sorted order.
func (m *ORMap) Keys() []string { return m.SortedKeys(nil) }

// SortedKeys overwrites dst with the live keys in sorted order.
func (m *ORMap) SortedKeys(dst []string) []string {
	dst = dst[:0]
	for k := range m.entries {
		if m.Contains(k) {
			dst = append(dst, k)
		}
	}
	slices.Sort(dst)
	return dst
}

// Len returns the number of live keys.
func (m *ORMap) Len() int { return len(m.Keys()) }

// Merge joins another map into this one.
func (m *ORMap) Merge(other *ORMap) {
	for k, reg := range other.entries {
		mine, ok := m.entries[k]
		if !ok {
			m.entries[k] = m.register(*reg)
			continue
		}
		mine.Merge(reg)
	}
	for k, t := range other.rems {
		if cur, ok := m.rems[k]; !ok || cur.Less(t) {
			m.rems[k] = t
		}
	}
}

// Clone returns an independent copy.
func (m *ORMap) Clone() *ORMap {
	out := NewORMap()
	for k, reg := range m.entries {
		out.entries[k] = reg.Clone()
	}
	for k, t := range m.rems {
		out.rems[k] = t
	}
	return out
}

// Equal reports state identity.
func (m *ORMap) Equal(other *ORMap) bool {
	if len(m.entries) != len(other.entries) || len(m.rems) != len(other.rems) {
		return false
	}
	for k, reg := range m.entries {
		oreg, ok := other.entries[k]
		if !ok || !reg.Equal(oreg) {
			return false
		}
	}
	for k, t := range m.rems {
		if other.rems[k] != t {
			return false
		}
	}
	return true
}
