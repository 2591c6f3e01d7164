// Package roshi re-implements the replication core of SoundCloud's Roshi
// (evaluation subject 1): a time-series event index with last-write-wins
// CRDT semantics. Keys map to sets of (member, score) pairs; inserts and
// deletes carry scores (timestamps), and the higher score wins. Selects
// return members by descending score with a "deleted" response field —
// the field at the heart of Roshi issue #18.
//
// Three seedable defects reproduce the paper's Roshi bug benchmarks:
//
//   - BugDeletedField (issue #18, "incorrect deleted field in response"):
//     a re-add at the same score as a prior delete keeps reporting the
//     member as deleted.
//   - BugEqualTimestampArrival (issue #11, "CRDT semantics violated if
//     same timestamp"): equal-score conflicts resolve by arrival order
//     instead of deterministically, so replicas diverge by interleaving.
//   - BugMapOrder (issue #40, "select and map order"): equal-score members
//     are returned in internal map-arrival order rather than a canonical
//     order, so reads are interleaving-dependent.
package roshi

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// Flags seed the known defects.
type Flags struct {
	BugDeletedField          bool `json:"bug_deleted_field"`
	BugEqualTimestampArrival bool `json:"bug_equal_timestamp_arrival"`
	BugMapOrder              bool `json:"bug_map_order"`
	// ArrivalWins disables LWW conflict resolution entirely: the latest
	// applied record wins regardless of score. This seeds misconception #1
	// ("the underlying network ensures causal delivery") — application
	// code that skips the resolution step depends on arrival order.
	ArrivalWins bool `json:"arrival_wins"`
}

// record is one member's LWW state within a key.
type record struct {
	Member string
	// Score is the logical timestamp of the winning operation.
	Score uint64
	// Deleted reports whether the winning operation was a delete.
	Deleted bool
	// Arrival is a per-store application counter used (only) by the seeded
	// arrival-order and map-order defects.
	Arrival int
}

// keyRecords is one key's records in ascending member order.
type keyRecords struct {
	key  string
	recs []record
}

// Store is one replica of the Roshi index. Its state is held in the order
// it is serialised — keys ascending, each key's records by ascending
// member — and found by binary search, so SyncPayload, Snapshot and
// Fingerprint walk it as it stands (DESIGN.md §4.16).
type Store struct {
	flags   Flags
	keys    []keyRecords
	arrival int
	// ver counts mutations for snapshot-cache invalidation
	// (replica.Versioned); selects are pure and leave it untouched.
	ver uint64

	// Scratch, never state: the select sort slice, decoded sync records,
	// and the table Restore decodes into before it swaps it in.
	rows     []*record
	incoming []syncRecord
	spare    []keyRecords
}

// findKey returns the index of key in keys, or where it would go.
func findKey[K string | []byte](keys []keyRecords, key K) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m].key < string(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(keys) && keys[lo].key == string(key)
}

// findMember returns the index of member in recs, or where it would go.
func findMember[M string | []byte](recs []record, member M) (int, bool) {
	lo, hi := 0, len(recs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if recs[m].Member < string(member) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(recs) && recs[lo].Member == string(member)
}

// keyAt returns the records of key, inserting an empty entry for it at i
// (from findKey) when the store does not hold it. A new entry takes over
// the record array a shrunken table left past its end.
func (s *Store) keyAt(i int, found bool, key string) *keyRecords {
	if !found {
		n := len(s.keys)
		var recs []record
		if n < cap(s.keys) {
			recs = s.keys[:n+1][n].recs[:0]
		}
		s.keys = slices.Insert(s.keys, i, keyRecords{key: key, recs: recs})
	}
	return &s.keys[i]
}

var (
	_ replica.State     = (*Store)(nil)
	_ replica.Versioned = (*Store)(nil)
)

// StateVersion implements replica.Versioned.
func (s *Store) StateVersion() uint64 { return s.ver }

// New returns an empty store with the given defect flags.
func New(flags Flags) *Store {
	return &Store{flags: flags}
}

// Insert applies an add of member to key at the given score.
func (s *Store) Insert(key, member string, score uint64) {
	s.apply(key, member, score, false)
}

// Delete applies a delete of member from key at the given score.
func (s *Store) Delete(key, member string, score uint64) {
	s.apply(key, member, score, true)
}

func (s *Store) apply(key, member string, score uint64, deleted bool) {
	i, found := findKey(s.keys, key)
	k := s.keyAt(i, found, key)
	j, found := findMember(k.recs, member)
	s.write(k, j, found, member, score, deleted)
}

// write resolves one write against the key's record at j (from
// findMember), adding a record for member when the key does not hold it.
func (s *Store) write(k *keyRecords, j int, found bool, member string, score uint64, deleted bool) {
	s.ver++
	s.arrival++
	if found {
		s.resolve(&k.recs[j], score, deleted)
		return
	}
	if s.flags.BugDeletedField && deleted && !s.flags.ArrivalWins {
		// Defect (issue #18): the code path creating a record for a
		// not-yet-known member forgets to set the deleted field, so a
		// tombstone that syncs in before its insert is recorded as
		// live. The wrong field value then wins LWW resolution against
		// the older insert — but only in interleavings where the
		// delete overtakes the insert.
		deleted = false
	}
	k.recs = slices.Insert(k.recs, j, record{Member: member, Score: score, Deleted: deleted, Arrival: s.arrival})
}

// resolve applies one write to a record the key already holds.
func (s *Store) resolve(cur *record, score uint64, deleted bool) {
	if s.flags.ArrivalWins {
		// Misconception #1 seed: no resolution, last arrival wins.
		cur.Score, cur.Deleted, cur.Arrival = score, deleted, s.arrival
		return
	}
	switch {
	case score > cur.Score:
		cur.Score, cur.Deleted, cur.Arrival = score, deleted, s.arrival
	case score == cur.Score:
		if s.flags.BugEqualTimestampArrival {
			// Defect: last arrival wins, so the winner depends on the
			// interleaving (issue #11).
			cur.Deleted, cur.Arrival = deleted, s.arrival
			return
		}
		// Correct resolution: deletes win score ties (Roshi's documented
		// semantics after issue #11), deterministically.
		if deleted && !cur.Deleted {
			cur.Deleted = true
			cur.Arrival = s.arrival
		}
	}
}

// SelectEntry is one row of a Select response.
type SelectEntry struct {
	Member  string `json:"member"`
	Score   uint64 `json:"score"`
	Deleted bool   `json:"deleted"`
}

// Select returns the key's live entries (and, when includeDeleted is set,
// tombstones) ordered by descending score.
func (s *Store) Select(key string, includeDeleted bool) []SelectEntry {
	rows := s.selectRows(key, includeDeleted)
	out := make([]SelectEntry, len(rows))
	for i, r := range rows {
		out[i] = SelectEntry{Member: r.Member, Score: r.Score, Deleted: r.Deleted}
	}
	return out
}

// selectRows is Select into the rows scratch.
func (s *Store) selectRows(key string, includeDeleted bool) []*record {
	s.rows = s.rows[:0]
	if i, ok := findKey(s.keys, key); ok {
		s.rows = s.appendRows(s.rows, &s.keys[i], includeDeleted)
	}
	return s.rows
}

// appendRows appends the key's live records (and, when includeDeleted is
// set, tombstones) to rows, ordered by descending score.
func (s *Store) appendRows(rows []*record, k *keyRecords, includeDeleted bool) []*record {
	start := len(rows)
	for i := range k.recs {
		if r := &k.recs[i]; includeDeleted || !r.Deleted {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows[start:], func(a, b *record) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if s.flags.BugMapOrder {
			// Defect: equal scores keep map-arrival order (issue #40).
			return cmp.Compare(a.Arrival, b.Arrival)
		}
		return strings.Compare(a.Member, b.Member)
	})
	return rows
}

// Apply implements replica.State. Ops:
//
//	insert(key, member, score)
//	delete(key, member, score)
//	select(key)            -> "member@score[,deleted]..." live rows
//	selectAll(key)         -> rows including tombstones with deleted flags
func (s *Store) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "insert":
		score, err := strconv.ParseUint(op.Args[2], 10, 64)
		if err != nil {
			return "", fmt.Errorf("roshi: bad score: %w", err)
		}
		s.Insert(op.Args[0], op.Args[1], score)
		return "", nil
	case "delete":
		score, err := strconv.ParseUint(op.Args[2], 10, 64)
		if err != nil {
			return "", fmt.Errorf("roshi: bad score: %w", err)
		}
		// Roshi's LWW semantics accept deletes of not-yet-known members:
		// the tombstone is recorded and wins or loses by score later.
		s.Delete(op.Args[0], op.Args[1], score)
		return "", nil
	case "select":
		return s.render(op.Args[0], false), nil
	case "selectAll":
		return s.render(op.Args[0], true), nil
	default:
		return "", fmt.Errorf("roshi: unknown op %s", op.Name)
	}
}

// render is a select's response text.
func (s *Store) render(key string, includeDeleted bool) string {
	var buf [256]byte
	return string(appendEntries(buf[:0], s.selectRows(key, includeDeleted)))
}

// appendEntries appends "member@score[:deleted]" per entry, comma-joined.
func appendEntries(b []byte, entries []*record) []byte {
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(append(b, e.Member...), '@'), e.Score, 10)
		if e.Deleted {
			b = append(b, ":deleted"...)
		}
	}
	return b
}

// syncRecord is one decoded record of a sync payload; key and member
// alias the payload.
type syncRecord struct {
	key, member []byte
	score       uint64
	deleted     bool
}

// minRecordBytes is the encoded size of the smallest record, in a sync
// payload (empty key and member, one-byte score, the deleted byte) and in
// a snapshot (empty member, one-byte score and arrival, the deleted byte).
const minRecordBytes = 4

// recordBytesGuess sizes an encoder's buffer per record it will write —
// short keys and members, one-byte scores; append grows past a low guess.
const recordBytesGuess = 16

// records counts the records over all keys.
func (s *Store) records() int {
	n := 0
	for i := range s.keys {
		n += len(s.keys[i].recs)
	}
	return n
}

// SyncPayload implements replica.State: the full record table as
// count, then (key, member, score, deleted) records sorted by key, member
// (DESIGN.md §4.16).
func (s *Store) SyncPayload() ([]byte, error) {
	n := s.records()
	b := wire.AppendUvarint(make([]byte, 0, 8+n*recordBytesGuess), uint64(n))
	for i := range s.keys {
		k := &s.keys[i]
		for j := range k.recs {
			r := &k.recs[j]
			b = wire.AppendString(b, k.key)
			b = wire.AppendString(b, r.Member)
			b = wire.AppendUvarint(b, r.Score)
			b = wire.AppendBool(b, r.Deleted)
		}
	}
	return b, nil
}

// ApplySync implements replica.State: merge the remote records through the
// same LWW resolution as local ops. Records are decoded by view, so only a
// key or member the store does not hold yet is copied out of the payload.
func (s *Store) ApplySync(payload []byte) error {
	r := wire.NewReader(payload)
	n := r.Count(minRecordBytes)
	s.incoming = slices.Grow(s.incoming[:0], n)[:n]
	for i := range s.incoming {
		s.incoming[i] = syncRecord{key: r.View(), member: r.View(), score: r.Uvarint(), deleted: r.Bool()}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("roshi: sync payload: %w", err)
	}
	// The payload is sorted by key, so a key is looked up once per run of
	// its records.
	var k *keyRecords
	for i, rec := range s.incoming {
		if i == 0 || !bytes.Equal(rec.key, s.incoming[i-1].key) {
			at, found := findKey(s.keys, rec.key)
			k = s.keyAt(at, found, string(rec.key))
		}
		j, found := findMember(k.recs, rec.member)
		member := ""
		if !found {
			member = string(rec.member)
		}
		s.write(k, j, found, member, rec.score, rec.deleted)
	}
	return nil
}

// arrivalMatters reports whether any seeded defect reads the arrival
// bookkeeping. When none does, Arrival values are incidental to behavior
// and must not leak into the snapshot encoding — equal logical states
// reached through different interleavings would otherwise serialize
// differently, defeating snapshot-hash state subsumption.
func (s *Store) arrivalMatters() bool {
	return s.flags.ArrivalWins || s.flags.BugEqualTimestampArrival || s.flags.BugMapOrder
}

// Snapshot implements replica.State: a dump of the record table — keys in
// ascending order, each with its records in ascending member order —
// followed by the arrival counter. Unlike the sync form it carries the
// per-record Arrival order and the counter, but only when a seeded defect
// reads them (a checkpoint that dropped them would then change behavior
// across a Restore(Snapshot()) round trip — the fidelity the prefix cache
// relies on, see replica.State); otherwise both are normalized to zero so
// the encoding is canonical.
func (s *Store) Snapshot() ([]byte, error) {
	arrival := func(a int) uint64 {
		if s.arrivalMatters() {
			return uint64(a)
		}
		return 0
	}
	b := wire.AppendUvarint(make([]byte, 0, 8+s.records()*recordBytesGuess), uint64(len(s.keys)))
	for i := range s.keys {
		k := &s.keys[i]
		b = wire.AppendString(b, k.key)
		b = wire.AppendUvarint(b, uint64(len(k.recs)))
		for j := range k.recs {
			r := &k.recs[j]
			b = wire.AppendString(b, r.Member)
			b = wire.AppendUvarint(b, r.Score)
			b = wire.AppendBool(b, r.Deleted)
			b = wire.AppendUvarint(b, arrival(r.Arrival))
		}
	}
	return wire.AppendUvarint(b, arrival(s.arrival)), nil
}

var errUnsorted = errors.New("roshi: snapshot: keys or members out of order")

// Restore implements replica.State. It decodes into the spare table and
// swaps it in only once the whole snapshot decoded, so a rejected
// snapshot leaves the store as it was. Keys and members must be strictly
// ascending, as Snapshot writes them. A key or member equal to the one
// the live table holds at the same place is shared, not copied: restoring
// the checkpoint the store was reset from copies nothing out.
func (s *Store) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	// A key costs at least its empty name and a zero member count.
	nKeys := r.Count(2)
	keys := slices.Grow(s.spare[:0], nKeys)[:nKeys]
	for i := range keys {
		k := &keys[i]
		k.key = s.keyString(r.View(), i)
		if i > 0 && keys[i-1].key >= k.key {
			r.Fail(errUnsorted)
		}
		k.recs = k.recs[:0]
		for j, n := 0, r.Count(minRecordBytes); j < n; j++ {
			member := s.memberString(r.View(), i, j)
			if j > 0 && k.recs[j-1].Member >= member {
				r.Fail(errUnsorted)
			}
			k.recs = append(k.recs, record{Member: member, Score: r.Uvarint(), Deleted: r.Bool(), Arrival: int(r.Uvarint())})
		}
	}
	arrival := int(r.Uvarint())
	if err := r.Done(); err != nil {
		return fmt.Errorf("roshi: snapshot: %w", err)
	}
	s.ver++
	s.keys, s.spare = keys, s.keys
	s.arrival = arrival
	return nil
}

// keyString returns v as a string, sharing the live table's i-th key when
// it is equal.
func (s *Store) keyString(v []byte, i int) string {
	if i < len(s.keys) && s.keys[i].key == string(v) {
		return s.keys[i].key
	}
	return string(v)
}

// memberString returns v as a string, sharing the live table's member j of
// key i when it is equal.
func (s *Store) memberString(v []byte, i, j int) string {
	if i < len(s.keys) && j < len(s.keys[i].recs) && s.keys[i].recs[j].Member == string(v) {
		return s.keys[i].recs[j].Member
	}
	return string(v)
}

// Fingerprint implements replica.State: canonical live membership with
// deleted flags, so both membership and response-field defects surface.
func (s *Store) Fingerprint() string {
	var buf [512]byte
	b := buf[:0]
	for i := range s.keys {
		k := &s.keys[i]
		s.rows = s.appendRows(s.rows[:0], k, true)
		b = appendEntries(append(append(b, k.key...), '{'), s.rows)
		b = append(b, '}')
	}
	return string(b)
}
