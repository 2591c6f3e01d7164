// Package merkle implements a Merkle-CRDT operation log: a content-
// addressed DAG of entries with Lamport clocks, joined by set union, as
// used by the OrbitDB evaluation subject (Sanjuan et al., "Merkle-CRDTs:
// Merkle-DAGs meet CRDTs").
//
// Each entry hashes its payload, Lamport clock, writer identity, and parent
// hashes; the log's heads are the entries no other entry references. Joins
// union the entry sets, so replicas that exchange heads converge to the
// same DAG; a total-order comparator linearizes the DAG for readers.
package merkle

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"github.com/er-pi/erpi/internal/wire"
)

// Entry is one immutable node of the Merkle DAG.
type Entry struct {
	// Hash is the content address (hex SHA-256 of the canonical encoding).
	Hash string
	// Payload is the opaque operation carried by the entry.
	Payload string
	// Clock is the entry's Lamport timestamp.
	Clock uint64
	// Identity names the writer.
	Identity string
	// Parents are the hashes of the log heads at append time.
	Parents []string

	// verified is the entry's own address once the log that owns it has
	// hashed it (Append) or verified it (Join). A copy of the struct
	// carries the original's address, not its own, so no copy — a clone,
	// or an entry annotated after hashing — inherits the result.
	verified *Entry
}

// MinEntryBytes is the size of the smallest AppendBinary encoding (three
// empty strings, a one-byte clock, no parents), for wire.Reader.Count.
const MinEntryBytes = 5

// AppendBinary appends the entry's wire form (DESIGN.md §4.16): hash,
// payload, clock, identity, then the parent hashes in stored order.
// Log.ReadUnheld is its decoder.
func (e *Entry) AppendBinary(b []byte) []byte {
	b = wire.AppendString(b, e.Hash)
	b = wire.AppendString(b, e.Payload)
	b = wire.AppendUvarint(b, e.Clock)
	b = wire.AppendString(b, e.Identity)
	return wire.AppendStrings(b, e.Parents)
}

// appendCanonical appends the deterministic byte encoding that is hashed:
//
//	payload=%q clock=%d id=%q parents=<sorted hashes, comma-joined>
//
// Verify runs once per entry a join does not hold, so the encoding is
// appended to the caller's (stack) buffer rather than built through fmt.
func (e *Entry) appendCanonical(b []byte) []byte {
	parents := e.Parents
	if !slices.IsSorted(parents) {
		parents = slices.Clone(parents)
		slices.Sort(parents)
	}
	b = append(b, "payload="...)
	b = strconv.AppendQuote(b, e.Payload)
	b = append(b, " clock="...)
	b = strconv.AppendUint(b, e.Clock, 10)
	b = append(b, " id="...)
	b = strconv.AppendQuote(b, e.Identity)
	b = append(b, " parents="...)
	for i, p := range parents {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	return b
}

// hexSum returns the hex SHA-256 of the canonical encoding.
func (e *Entry) hexSum() (out [2 * sha256.Size]byte) {
	var buf [512]byte // room for a handful of parents; append grows past it
	sum := sha256.Sum256(e.appendCanonical(buf[:0]))
	hex.Encode(out[:], sum[:])
	return out
}

// ComputeHash returns the content address of the entry's current fields.
func (e *Entry) ComputeHash() string {
	sum := e.hexSum()
	return string(sum[:])
}

// Verify reports whether the stored hash matches the entry contents — the
// integrity check that OrbitDB issue #583 ("head hash didn't match the
// contents") violates.
func (e *Entry) Verify() bool {
	sum := e.hexSum()
	return e.Hash == string(sum[:])
}

// Verified is Verify answered from the remembered result when a log owns
// this very entry: the log hashed or verified it on the way in and never
// mutates its entries, so the result still holds. Any other entry is
// verified on the spot.
func (e *Entry) Verified() bool {
	return e.verified == e || e.Verify()
}

// TieBreak selects the total-order comparator used to linearize entries
// with equal clocks.
type TieBreak int

// Comparator modes.
const (
	// TieBreakIdentityHash orders equal-clock entries by identity, then by
	// hash — a total order (the fix for OrbitDB issue #513).
	TieBreakIdentityHash TieBreak = iota + 1
	// TieBreakIdentityOnly orders equal-clock entries by identity only;
	// entries with the same clock AND identity have no defined order and
	// fall back to internal arrival order — the defect of OrbitDB issue
	// #513 (arrival order is deterministic for a given history but varies
	// with the interleaving, which is exactly the reported hazard).
	TieBreakIdentityOnly
)

// Log is a replica's view of the Merkle-CRDT log.
type Log struct {
	identity string
	clock    uint64
	entries  map[string]*Entry
	tie      TieBreak
	// order holds the entries in the order they entered this replica's DAG
	// (arrival order); the TieBreakIdentityOnly comparator falls back to
	// it, and View hands it out.
	order []*Entry
	// MaxClockSkew, when non-zero, rejects joined entries whose clock runs
	// further than this ahead of the local clock. A zero value accepts any
	// clock — the behaviour that lets OrbitDB issue #512 ("Lamport clock
	// set far into future making db progress halt") happen.
	MaxClockSkew uint64

	// Scratch, never state: linearize's order, ReadUnheld's parent views,
	// Heads' sorted parent hashes.
	linear  []*Entry
	parents [][]byte
	refs    []string
}

// NewLog returns an empty log for a writer identity.
func NewLog(identity string, tie TieBreak) *Log {
	return &Log{
		identity: identity,
		entries:  make(map[string]*Entry),
		tie:      tie,
	}
}

// Reset empties the log; identity, tie-break and skew guard stay.
func (l *Log) Reset() {
	l.clock = 0
	clear(l.entries)
	l.order = l.order[:0]
}

// Identity returns the writer identity.
func (l *Log) Identity() string { return l.identity }

// Clock returns the current Lamport clock.
func (l *Log) Clock() uint64 { return l.clock }

// Len returns the number of entries in the DAG.
func (l *Log) Len() int { return len(l.entries) }

// Append adds a new entry with the given payload on top of the current
// heads and returns it.
func (l *Log) Append(payload string) *Entry {
	l.clock++
	e := &Entry{
		Payload:  payload,
		Clock:    l.clock,
		Identity: l.identity,
		Parents:  l.Heads(),
	}
	e.Hash = e.ComputeHash()
	e.verified = e
	l.entries[e.Hash] = e
	l.order = append(l.order, e)
	return e
}

// Heads returns the hashes of entries not referenced as anyone's parent,
// sorted for determinism.
func (l *Log) Heads() []string {
	l.refs = l.refs[:0]
	for _, e := range l.order {
		l.refs = append(l.refs, e.Parents...)
	}
	slices.Sort(l.refs)
	var heads []string
	for _, e := range l.order {
		if _, referenced := slices.BinarySearch(l.refs, e.Hash); !referenced {
			heads = append(heads, e.Hash)
		}
	}
	slices.Sort(heads)
	return heads
}

// ErrClockSkew reports a joined entry rejected by the MaxClockSkew guard.
type ErrClockSkew struct {
	EntryClock uint64
	LocalClock uint64
	Limit      uint64
}

func (e *ErrClockSkew) Error() string {
	return fmt.Sprintf("merkle: entry clock %d exceeds local clock %d by more than %d",
		e.EntryClock, e.LocalClock, e.Limit)
}

// Join merges entries from another replica. Entries failing hash
// verification are rejected; when MaxClockSkew is set, far-future clocks
// are rejected too. The local clock witnesses every accepted entry.
func (l *Log) Join(entries []*Entry) error {
	for _, e := range entries {
		if !e.Verified() {
			return fmt.Errorf("merkle: join rejected entry %s: hash mismatch", shortHash(e.Hash))
		}
		if l.MaxClockSkew > 0 && e.Clock > l.clock+l.MaxClockSkew {
			return &ErrClockSkew{EntryClock: e.Clock, LocalClock: l.clock, Limit: l.MaxClockSkew}
		}
	}
	for _, e := range entries {
		if _, ok := l.entries[e.Hash]; ok {
			continue
		}
		cp := *e
		cp.Parents = append([]string(nil), e.Parents...)
		cp.verified = &cp
		l.entries[e.Hash] = &cp
		l.order = append(l.order, &cp)
		if e.Clock > l.clock {
			l.clock = e.Clock
		}
	}
	return nil
}

// View returns every entry in local arrival order — the order a peer
// streams its log to others, which keeps replay deterministic — without
// copying: the entries are the log's own and read-only, and the slice is
// valid until the next Append, Join or Reset. Entries is the copying form.
func (l *Log) View() []*Entry { return l.order }

// Entries returns a copy of every entry in local arrival order.
func (l *Log) Entries() []*Entry {
	out := make([]*Entry, len(l.order))
	for i, e := range l.order {
		out[i] = e.clone()
	}
	return out
}

func (e *Entry) clone() *Entry {
	cp := *e
	cp.Parents = append([]string(nil), e.Parents...)
	cp.verified = nil
	return &cp
}

// Get returns a copy of the entry with the given hash.
func (l *Log) Get(hash string) (*Entry, bool) {
	e, ok := l.entries[hash]
	if !ok {
		return nil, false
	}
	return e.clone(), true
}

// ReadUnheld reads one AppendBinary entry from r — the format's only
// decoder. An entry this log holds field for field is only viewed, and
// reported held: it verifies, as every held entry passed Verify or was
// hashed by Append. Any other is decoded into e, with nil Parents when it
// has none, for Join to verify. Failures stick to r.
func (l *Log) ReadUnheld(r *wire.Reader, e *Entry) (held bool) {
	hash, payload := r.View(), r.View()
	clock := r.Uvarint()
	identity := r.View()
	l.parents = l.parents[:0]
	for n := r.Count(1); n > 0; n-- {
		l.parents = append(l.parents, r.View())
	}
	if h, ok := l.entries[string(hash)]; ok && string(payload) == h.Payload && clock == h.Clock && string(identity) == h.Identity &&
		slices.EqualFunc(l.parents, h.Parents, func(v []byte, p string) bool { return string(v) == p }) {
		return true
	}
	*e = Entry{Hash: string(hash), Payload: string(payload), Clock: clock, Identity: string(identity)}
	if len(l.parents) > 0 {
		e.Parents = make([]string, len(l.parents))
		for i, p := range l.parents {
			e.Parents[i] = string(p)
		}
	}
	return false
}

// linearize sorts the view by (clock, identity, hash) into the linear
// scratch. With TieBreakIdentityOnly the hash is left out, and the stable
// sort keeps equal (clock, identity) entries in local arrival order — the
// OrbitDB #513 defect: deliberately NOT a total order over entry contents,
// so replicas that received them in different orders read the log
// differently.
func (l *Log) linearize() []*Entry {
	l.linear = append(l.linear[:0], l.order...)
	slices.SortStableFunc(l.linear, func(a, b *Entry) int {
		c := cmp.Or(cmp.Compare(a.Clock, b.Clock), cmp.Compare(a.Identity, b.Identity))
		if c == 0 && l.tie != TieBreakIdentityOnly {
			c = cmp.Compare(a.Hash, b.Hash)
		}
		return c
	})
	return l.linear
}

// AppendPayloads appends the linearized payloads, sep between them:
// Payloads joined, without the slice.
func (l *Log) AppendPayloads(b []byte, sep string) []byte {
	for i, e := range l.linearize() {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, e.Payload...)
	}
	return b
}

// Payloads returns the linearized payloads.
func (l *Log) Payloads() []string {
	linear := l.linearize()
	out := make([]string, len(linear))
	for i, e := range linear {
		out[i] = e.Payload
	}
	return out
}

// Clone returns an independent copy of the log.
func (l *Log) Clone() *Log {
	out := NewLog(l.identity, l.tie)
	out.clock = l.clock
	out.MaxClockSkew = l.MaxClockSkew
	for _, e := range l.order {
		cp := e.clone()
		out.entries[cp.Hash] = cp
		out.order = append(out.order, cp)
	}
	return out
}

// Equal reports whether two logs hold the same entry set.
func (l *Log) Equal(other *Log) bool {
	if len(l.entries) != len(other.entries) {
		return false
	}
	for h := range l.entries {
		if _, ok := other.entries[h]; !ok {
			return false
		}
	}
	return true
}

func shortHash(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}
