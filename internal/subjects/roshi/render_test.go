package roshi

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
)

// referenceSelect, referenceRender and referenceFingerprint are how a
// select and the fingerprint rendered before they wrote from scratch
// slices: a fresh sorted row slice per select, copied into SelectEntry
// values and rendered from those; keys sorted with sort.Strings.
func referenceSelect(s *Store, key string, includeDeleted bool) []SelectEntry {
	recs := s.keys[key]
	rows := make([]*record, 0, len(recs))
	for _, r := range recs {
		if r.Deleted && !includeDeleted {
			continue
		}
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b *record) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if s.flags.BugMapOrder {
			return cmp.Compare(a.Arrival, b.Arrival)
		}
		return strings.Compare(a.Member, b.Member)
	})
	out := make([]SelectEntry, len(rows))
	for i, r := range rows {
		out[i] = SelectEntry{Member: r.Member, Score: r.Score, Deleted: r.Deleted}
	}
	return out
}

func referenceRender(entries []SelectEntry) string {
	var b strings.Builder
	referenceAppendEntries(&b, entries)
	return b.String()
}

func referenceAppendEntries(b *strings.Builder, entries []SelectEntry) {
	var digits [20]byte
	for i, e := range entries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.Member)
		b.WriteByte('@')
		b.Write(strconv.AppendUint(digits[:0], e.Score, 10))
		if e.Deleted {
			b.WriteString(":deleted")
		}
	}
}

func referenceFingerprint(s *Store) string {
	keys := make([]string, 0, len(s.keys))
	for k := range s.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('{')
		referenceAppendEntries(&b, referenceSelect(s, k, true))
		b.WriteByte('}')
	}
	return b.String()
}

// TestSelectAndFingerprintMatchReference drives random stores under every
// flag set through inserts, deletes and syncs, and compares select,
// selectAll, Select and Fingerprint with the reference rendering.
func TestSelectAndFingerprintMatchReference(t *testing.T) {
	keys := []string{"feed", "f", "feed2", ""}
	members := []string{"m1", "m10", "m2", "m", "x,y"}
	for _, flags := range []Flags{{}, {BugMapOrder: true}, {BugDeletedField: true}, {BugEqualTimestampArrival: true}, {ArrivalWins: true}} {
		for seed := int64(1); seed <= 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a, b := New(flags), New(flags)
			for i := 0; i < 20; i++ {
				s := a
				if rng.Intn(2) == 0 {
					s = b
				}
				k, m, score := keys[rng.Intn(len(keys))], members[rng.Intn(len(members))], uint64(rng.Intn(4))
				switch rng.Intn(5) {
				case 0, 1:
					s.Insert(k, m, score)
				case 2:
					s.Delete(k, m, score)
				case 3:
					payload, err := b.SyncPayload()
					if err != nil {
						t.Fatal(err)
					}
					if err := a.ApplySync(payload); err != nil {
						t.Fatal(err)
					}
				case 4:
					payload, err := a.SyncPayload()
					if err != nil {
						t.Fatal(err)
					}
					if err := b.ApplySync(payload); err != nil {
						t.Fatal(err)
					}
				}
				for _, s := range []*Store{a, b} {
					for _, k := range keys {
						for _, all := range []bool{false, true} {
							op := map[bool]string{false: "select", true: "selectAll"}[all]
							want := referenceSelect(s, k, all)
							if got, _ := s.Apply(replica.Op{Name: op, Args: []string{k}}); got != referenceRender(want) {
								t.Fatalf("%+v seed %d: %s(%q) = %q, want %q", flags, seed, op, k, got, referenceRender(want))
							}
							if got := s.Select(k, all); !slices.Equal(got, want) {
								t.Fatalf("%+v seed %d: Select(%q, %v) = %v, want %v", flags, seed, k, all, got, want)
							}
						}
					}
					if got, want := s.Fingerprint(), referenceFingerprint(s); got != want {
						t.Fatalf("%+v seed %d: Fingerprint %q, want %q", flags, seed, got, want)
					}
				}
			}
		}
	}
}
