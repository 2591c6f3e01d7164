package roshi

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// modelRecord is one member's LWW state in the model store.
type modelRecord struct {
	score   uint64
	deleted bool
	arrival int
}

// model is an independent map-based Roshi store: Roshi's LWW rules
// written out again over nested maps, sorted only when it renders. It
// reads nothing of Store, so a Store that files a record under the wrong
// key or member, loses one, or serialises in the wrong order disagrees
// with it.
type model struct {
	flags   Flags
	keys    map[string]map[string]*modelRecord
	arrival int
}

func newModel(flags Flags) *model {
	return &model{flags: flags, keys: make(map[string]map[string]*modelRecord)}
}

func (m *model) clone() *model {
	out := newModel(m.flags)
	out.arrival = m.arrival
	for k, recs := range m.keys {
		out.keys[k] = make(map[string]*modelRecord, len(recs))
		for member, r := range recs {
			cp := *r
			out.keys[k][member] = &cp
		}
	}
	return out
}

func (m *model) arrivalMatters() bool {
	return m.flags.ArrivalWins || m.flags.BugEqualTimestampArrival || m.flags.BugMapOrder
}

// write is one insert (deleted false) or delete under Roshi's rules.
func (m *model) write(key, member string, score uint64, deleted bool) {
	if m.keys[key] == nil {
		m.keys[key] = make(map[string]*modelRecord)
	}
	m.arrival++
	cur := m.keys[key][member]
	switch {
	case cur == nil:
		if m.flags.BugDeletedField && !m.flags.ArrivalWins {
			deleted = false
		}
		m.keys[key][member] = &modelRecord{score: score, deleted: deleted, arrival: m.arrival}
	case m.flags.ArrivalWins || score > cur.score:
		*cur = modelRecord{score: score, deleted: deleted, arrival: m.arrival}
	case score == cur.score && m.flags.BugEqualTimestampArrival:
		cur.deleted, cur.arrival = deleted, m.arrival
	case score == cur.score && deleted && !cur.deleted:
		cur.deleted, cur.arrival = true, m.arrival
	}
}

// mergeFrom applies every record of src, keys and members ascending — the
// order a sync payload carries them in.
func (m *model) mergeFrom(src *model) {
	for _, k := range sortedKeys(src.keys) {
		for _, member := range sortedKeys(src.keys[k]) {
			r := src.keys[k][member]
			m.write(k, member, r.score, r.deleted)
		}
	}
}

// restored is the model a Restore of m's snapshot yields: arrivals that
// no flag reads are not part of the snapshot.
func (m *model) restored() *model {
	out := m.clone()
	if !out.arrivalMatters() {
		out.arrival = 0
		for _, recs := range out.keys {
			for _, r := range recs {
				r.arrival = 0
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *model) selectEntries(key string, includeDeleted bool) []SelectEntry {
	var out []SelectEntry
	arrival := make(map[string]int)
	for member, r := range m.keys[key] {
		if r.deleted && !includeDeleted {
			continue
		}
		out = append(out, SelectEntry{Member: member, Score: r.score, Deleted: r.deleted})
		arrival[member] = r.arrival
	}
	slices.SortFunc(out, func(a, b SelectEntry) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if m.flags.BugMapOrder {
			return cmp.Compare(arrival[a.Member], arrival[b.Member])
		}
		return strings.Compare(a.Member, b.Member)
	})
	return out
}

func renderEntries(entries []SelectEntry) string {
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = e.Member + "@" + strconv.FormatUint(e.Score, 10)
		if e.Deleted {
			parts[i] += ":deleted"
		}
	}
	return strings.Join(parts, ",")
}

func (m *model) fingerprint() string {
	var b strings.Builder
	for _, k := range sortedKeys(m.keys) {
		b.WriteString(k + "{" + renderEntries(m.selectEntries(k, true)) + "}")
	}
	return b.String()
}

func (m *model) syncPayload() []byte {
	n := 0
	for _, recs := range m.keys {
		n += len(recs)
	}
	b := wire.AppendUvarint(nil, uint64(n))
	for _, k := range sortedKeys(m.keys) {
		for _, member := range sortedKeys(m.keys[k]) {
			r := m.keys[k][member]
			b = wire.AppendString(b, k)
			b = wire.AppendString(b, member)
			b = wire.AppendUvarint(b, r.score)
			b = wire.AppendBool(b, r.deleted)
		}
	}
	return b
}

func (m *model) snapshot() []byte {
	arrival := func(a int) uint64 {
		if m.arrivalMatters() {
			return uint64(a)
		}
		return 0
	}
	b := wire.AppendUvarint(nil, uint64(len(m.keys)))
	for _, k := range sortedKeys(m.keys) {
		b = wire.AppendString(b, k)
		b = wire.AppendUvarint(b, uint64(len(m.keys[k])))
		for _, member := range sortedKeys(m.keys[k]) {
			r := m.keys[k][member]
			b = wire.AppendString(b, member)
			b = wire.AppendUvarint(b, r.score)
			b = wire.AppendBool(b, r.deleted)
			b = wire.AppendUvarint(b, arrival(r.arrival))
		}
	}
	return wire.AppendUvarint(b, arrival(m.arrival))
}

// TestSelectAndFingerprintMatchReference drives pairs of stores and their
// models under every Flags combination through random histories of
// inserts, deletes, syncs both ways, and restores of earlier snapshots,
// and after every step requires select, selectAll, Select, Fingerprint,
// Snapshot and SyncPayload to equal the model's.
func TestSelectAndFingerprintMatchReference(t *testing.T) {
	keys := []string{"feed", "f", "feed2", "", "a-key-longer-than-thirty-two-bytes"}
	members := []string{"m1", "m10", "m2", "m", "x,y", ""}
	for bits := 0; bits < 16; bits++ {
		flags := Flags{
			BugDeletedField:          bits&1 != 0,
			BugEqualTimestampArrival: bits&2 != 0,
			BugMapOrder:              bits&4 != 0,
			ArrivalWins:              bits&8 != 0,
		}
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stores := []*Store{New(flags), New(flags)}
			models := []*model{newModel(flags), newModel(flags)}
			type saved struct {
				snapshot []byte
				model    *model
			}
			var snaps []saved
			for step := 0; step < 30; step++ {
				i := rng.Intn(2)
				s, m := stores[i], models[i]
				k, member, score := keys[rng.Intn(len(keys))], members[rng.Intn(len(members))], uint64(rng.Intn(4))
				switch rng.Intn(7) {
				case 0, 1:
					s.Insert(k, member, score)
					m.write(k, member, score, false)
				case 2:
					s.Delete(k, member, score)
					m.write(k, member, score, true)
				case 3, 4:
					payload, err := stores[1-i].SyncPayload()
					if err != nil {
						t.Fatal(err)
					}
					if err := s.ApplySync(payload); err != nil {
						t.Fatal(err)
					}
					m.mergeFrom(models[1-i])
				case 5:
					data, err := s.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, saved{data, m.restored()})
				case 6:
					if len(snaps) == 0 {
						continue
					}
					sv := snaps[rng.Intn(len(snaps))]
					if err := s.Restore(sv.snapshot); err != nil {
						t.Fatal(err)
					}
					models[i] = sv.model.clone()
				}
				for j, s := range stores {
					m := models[j]
					where := func() string {
						return "flags " + strconv.Itoa(bits) + " seed " + strconv.FormatInt(seed, 10) + " step " + strconv.Itoa(step)
					}
					for _, k := range keys {
						for _, all := range []bool{false, true} {
							op := map[bool]string{false: "select", true: "selectAll"}[all]
							want := m.selectEntries(k, all)
							if got, _ := s.Apply(replica.Op{Name: op, Args: []string{k}}); got != renderEntries(want) {
								t.Fatalf("%s: %s(%q) = %q, want %q", where(), op, k, got, renderEntries(want))
							}
							if got := s.Select(k, all); !slices.Equal(got, want) {
								t.Fatalf("%s: Select(%q, %v) = %v, want %v", where(), k, all, got, want)
							}
						}
					}
					if got, want := s.Fingerprint(), m.fingerprint(); got != want {
						t.Fatalf("%s: Fingerprint %q, want %q", where(), got, want)
					}
					if got, _ := s.Snapshot(); !bytes.Equal(got, m.snapshot()) {
						t.Fatalf("%s: Snapshot %x, want %x", where(), got, m.snapshot())
					}
					if got, _ := s.SyncPayload(); !bytes.Equal(got, m.syncPayload()) {
						t.Fatalf("%s: SyncPayload %x, want %x", where(), got, m.syncPayload())
					}
				}
			}
		}
	}
}

// TestRestoreRejectsUnorderedTables: a snapshot whose keys or members are
// not strictly ascending is not one Snapshot writes, and Restore rejects
// it without touching the store.
func TestRestoreRejectsUnorderedTables(t *testing.T) {
	table := func(keys map[string][]string, order []string) []byte {
		b := wire.AppendUvarint(nil, uint64(len(order)))
		for _, k := range order {
			b = wire.AppendString(b, k)
			b = wire.AppendUvarint(b, uint64(len(keys[k])))
			for _, member := range keys[k] {
				b = wire.AppendString(b, member)
				b = wire.AppendUvarint(b, 1)
				b = wire.AppendBool(b, false)
				b = wire.AppendUvarint(b, 0)
			}
		}
		return wire.AppendUvarint(b, 0)
	}
	s := New(Flags{})
	s.Insert("k", "m", 1)
	want := s.Fingerprint()
	good := map[string][]string{"a": {"x", "y"}, "b": {"z"}}
	if err := New(Flags{}).Restore(table(good, []string{"a", "b"})); err != nil {
		t.Fatalf("ordered snapshot rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"keys descending":   table(good, []string{"b", "a"}),
		"key twice":         table(good, []string{"a", "a"}),
		"members unordered": table(map[string][]string{"a": {"y", "x"}}, []string{"a"}),
		"member twice":      table(map[string][]string{"a": {"x", "x"}}, []string{"a"}),
	} {
		if err := s.Restore(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := s.Fingerprint(); got != want {
			t.Errorf("%s: rejected but changed the store: %q, want %q", name, got, want)
		}
	}
}
