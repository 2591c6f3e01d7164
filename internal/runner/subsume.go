package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
)

// ErrSubsumed marks an interleaving skipped by state subsumption: its
// execution frontier reached a (state-hash, remaining-event-multiset)
// pair already visited via a lexicographically smaller prefix — at an
// interior depth, after its last event, where the smaller interleaving
// is the witness itself, or before replay, when it extends a prefix its
// executor already abandoned at an interior depth — so its outcome is provably identical to one an
// executed interleaving produces (DESIGN.md §4.12). Engines count it in
// Result.Subsumed instead of quarantining; it is never retried.
var ErrSubsumed = errors.New("runner: interleaving subsumed by visited state")

// subsumeStripes is the lock-stripe count of the shared frontier table.
// The table is hit by every pool worker at every snapshot depth; striping
// by a context-hash byte keeps Workers ≥ 8 off a single global mutex.
// Power of two so the stripe index is a mask.
const subsumeStripes = 32

// subsumeTable is the bounded visited-frontier table behind DPOR-style
// state subsumption (DESIGN.md §4.12). A key is the pair
// (execution-context hash, remaining-event-multiset digest); the entry
// remembers the smallest exploration index seen reaching that frontier,
// with a hash of that interleaving's prefix. The lexicographic explorers
// yield interleavings in strictly increasing event-ID order, so within
// one generation a smaller index is a lexicographically smaller
// interleaving, and a distinct prefix of it is strictly smaller too. The
// executor consults the table at snapshot depths and after the last
// event: when a smaller index recorded a different prefix, the rest of
// the interleaving is skipped — every permutation of the remaining events
// from an identical execution context yields an outcome some
// lexicographically smaller interleaving already produced (the strict
// ordering is what makes witness chains terminate; see §4.12 for the
// argument, including out-of-order pool recording).
//
// Unlike the prefix cache, one table is shared by every worker of a run —
// a frontier visited by any worker prunes all of them — so all methods
// are safe for concurrent use. Entries are sharded into stripes keyed by
// the context hash's first byte; byte accounting is a global atomic, and
// eviction is FIFO over one insertion-ordered queue threaded through the
// entries (the order a single-map table evicted in). Lock order is stripe
// → queue; eviction takes them one after the other, never nested.
type subsumeTable struct {
	budget int64 // max accounted bytes (> 0)
	bytes  atomic.Int64

	stripes [subsumeStripes]subsumeStripe

	// qmu guards the eviction queue: every entry from insertion until it is
	// popped, oldest at head. An entry is linked while its stripe is still
	// locked, so whatever a stripe maps is queued (or was just popped).
	qmu        sync.Mutex
	head, tail *subsumeEntry
}

type subsumeStripe struct {
	mu      sync.Mutex
	entries map[subsumeKey]*subsumeEntry
}

// subsumeKey identifies one exploration frontier.
type subsumeKey struct {
	ctx [sha256.Size]byte // canonical execution-context hash
	rem msetDigest        // remaining-event-multiset digest (via the prefix multiset)
}

// subsumeEntry is fixed-size: the witness is named by its exploration
// index, not by a copy of its prefix.
type subsumeEntry struct {
	key    subsumeKey
	index  int           // exploration index of the smallest recorder
	prefix uint64        // prefixHash of that recorder's prefix
	next   *subsumeEntry // younger neighbour in the eviction queue
}

// subsumeEntryBytes approximates one entry's cost (key bytes, witness,
// queue link, map bucket) when accounting against the byte budget.
const subsumeEntryBytes = 2*sha256.Size + 48

func newSubsumeTable(budget int64) *subsumeTable {
	t := &subsumeTable{budget: budget}
	for i := range t.stripes {
		t.stripes[i].entries = make(map[subsumeKey]*subsumeEntry)
	}
	return t
}

func (t *subsumeTable) stripeFor(key subsumeKey) *subsumeStripe {
	return &t.stripes[key.ctx[0]&(subsumeStripes-1)]
}

// visit is the one-shot check-and-record at a context point of the
// interleaving with exploration index `index`, after `prefix`. It returns
// skip=true when a strictly smaller index recorded the same frontier via
// a different prefix — the caller abandons the interleaving with
// ErrSubsumed. Otherwise the frontier is recorded (adopting the current
// index when it is the smaller reacher) and execution continues. An equal
// prefix hash never skips: it is the same literal prefix (a retry, or a
// later interleaving re-walking a shared prefix), whose completion from
// here is the current interleaving itself. A prefix-hash collision can
// therefore only cost a skip, never cause one. delta is the net change in
// accounted bytes, for the subsumption_table_bytes gauge. A full table
// evicts on every insert, which is why eviction is a queue pop and not a
// scan.
func (t *subsumeTable) visit(ctx [sha256.Size]byte, rem msetDigest, prefix interleave.Interleaving, index int) (skip bool, delta int64) {
	key := subsumeKey{ctx: ctx, rem: rem}
	ph := prefixHash(prefix)
	s := t.stripeFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		defer s.mu.Unlock()
		switch {
		case e.prefix == ph:
			return false, 0
		case e.index < index:
			return true, 0
		case e.index > index:
			// The current interleaving is the smaller reacher: adopt it so
			// future arrivals compare against the minimum. Fixed-size
			// entry — no byte delta, same place in the queue.
			e.index, e.prefix = index, ph
		}
		return false, 0
	}
	const size = subsumeEntryBytes
	if size > t.budget {
		s.mu.Unlock()
		return false, 0
	}
	e := &subsumeEntry{key: key, index: index, prefix: ph}
	s.entries[key] = e
	t.qmu.Lock()
	if t.tail == nil {
		t.head = e
	} else {
		t.tail.next = e
	}
	t.tail = e
	t.qmu.Unlock()
	s.mu.Unlock()
	t.bytes.Add(size)
	delta = size
	for t.bytes.Load() > t.budget {
		freed, ok := t.evictOldest()
		if !ok {
			break
		}
		delta -= freed
	}
	return false, delta
}

// evictOldest pops the head of the eviction queue, drops that entry from
// its stripe and returns the bytes freed; ok is false once the queue is
// empty. Dropping entries is always sound (fewer skips). A popped entry
// its stripe no longer maps — invalidate swept it between the two locks —
// frees nothing.
func (t *subsumeTable) evictOldest() (freed int64, ok bool) {
	t.qmu.Lock()
	e := t.head
	if e == nil {
		t.qmu.Unlock()
		return 0, false
	}
	if t.head = e.next; t.head == nil {
		t.tail = nil
	}
	t.qmu.Unlock()

	s := t.stripeFor(e.key)
	s.mu.Lock()
	if s.entries[e.key] == e {
		delete(s.entries, e.key)
		freed = subsumeEntryBytes
	}
	s.mu.Unlock()
	t.bytes.Add(-freed)
	return freed, true
}

// invalidate discards every entry (the re-pruning boundary, mirroring the
// prefix cache) and returns the bytes freed. Called at quiesce barriers
// only, so the stripe-at-a-time sweep is not racing inserts that matter.
// The queue goes first: an insert that slips in before its stripe is
// swept leaves a queue node without a map entry, which evictOldest skips —
// the other order could leave a map entry no eviction would ever reach.
func (t *subsumeTable) invalidate() int64 {
	t.qmu.Lock()
	t.head, t.tail = nil, nil
	t.qmu.Unlock()
	var freed int64
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		freed += int64(len(s.entries)) * subsumeEntryBytes
		s.entries = make(map[subsumeKey]*subsumeEntry)
		s.mu.Unlock()
	}
	t.bytes.Add(-freed)
	return freed
}

// bytesHeld reports the accounted table size.
func (t *subsumeTable) bytesHeld() int64 {
	return t.bytes.Load()
}

// len reports the entry count (tests only).
func (t *subsumeTable) len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// prefixHash is 64-bit FNV-1a over the prefix's event IDs, each
// uvarint-encoded (a prefix-free code, so distinct sequences are distinct
// byte strings). It tells a frontier's recorder apart from a re-walk of
// the same literal prefix without storing the prefix.
func prefixHash(prefix interleave.Interleaving) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, id := range prefix {
		v := uint64(id)
		for ; v >= 0x80; v >>= 7 {
			h = (h ^ (v&0x7f | 0x80)) * prime
		}
		h = (h ^ v) * prime
	}
	return h
}

// msetDigest is an additive (homomorphic) multiset hash: each event ID
// contributes sha256(uvarint(id)) read as four little-endian uint64
// words, and a multiset's digest is the component-wise sum mod 2^64 of
// its members' contributions. Addition commutes, so the executor keeps a
// rolling digest updated O(1) per executed event instead of re-sorting
// and re-hashing the prefix at every snapshot depth; collision resistance
// is the standard MSet-Add-Hash argument (finding a colliding multiset
// means solving a random subset-sum over 256 bits).
type msetDigest [4]uint64

// add folds one contribution into the digest in place.
func (m *msetDigest) add(c msetDigest) {
	m[0] += c[0]
	m[1] += c[1]
	m[2] += c[2]
	m[3] += c[3]
}

// msetContribution returns one event ID's fixed contribution.
func msetContribution(id event.ID) msetDigest {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(id))
	sum := sha256.Sum256(tmp[:n])
	return msetDigest{
		binary.LittleEndian.Uint64(sum[0:8]),
		binary.LittleEndian.Uint64(sum[8:16]),
		binary.LittleEndian.Uint64(sum[16:24]),
		binary.LittleEndian.Uint64(sum[24:32]),
	}
}

// multisetHash digests the unordered multiset of event IDs in prefix from
// scratch — the reference the executor's rolling digest must always agree
// with (property-tested per subject). All interleavings of one run
// permute the same event set, so the prefix multiset determines the
// remaining-event multiset.
func multisetHash(prefix interleave.Interleaving) msetDigest {
	var m msetDigest
	for _, id := range prefix {
		m.add(msetContribution(id))
	}
	return m
}

// ctxScratch is the reusable working memory of one contextHash call: the
// digest preimage buffer and the event-ID sort area. Pooled so the hot
// path's per-depth hashing allocates nothing in steady state.
type ctxScratch struct {
	buf []byte
	ids []event.ID
}

var ctxScratchPool = sync.Pool{New: func() any { return new(ctxScratch) }}

// contextHash digests the full execution context after a prefix: the
// canonical cluster snapshot plus everything else the remaining suffix
// can observe — captured sync payloads, recorded observations, and failed
// ops (exactly the prefixSnapshot capture set; DroppedSyncs are absent
// because fault-armed interleavings bypass subsumption). The cluster
// enters via its hash-of-hashes encoding (32 bytes per replica, served
// from the per-replica caches) rather than its full serialization; each
// section is length-prefixed and sorted so the digest is injective over
// contexts.
func contextHash(states *replica.ClusterSnapshot, pending map[event.ID][]byte, obs map[event.ID]string, failed []event.ID) [sha256.Size]byte {
	sc := ctxScratchPool.Get().(*ctxScratch)
	b := sc.buf[:0]
	var tmp [binary.MaxVarintLen64]byte
	appendUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		b = append(b, tmp[:n]...)
	}

	b = states.AppendHashEncoding(b)

	ids := sc.ids[:0]
	for id := range pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = append(b, 'P')
	appendUvarint(uint64(len(ids)))
	for _, id := range ids {
		appendUvarint(uint64(id))
		appendUvarint(uint64(len(pending[id])))
		b = append(b, pending[id]...)
	}

	ids = ids[:0]
	for id := range obs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = append(b, 'O')
	appendUvarint(uint64(len(ids)))
	for _, id := range ids {
		appendUvarint(uint64(id))
		appendUvarint(uint64(len(obs[id])))
		b = append(b, obs[id]...)
	}

	ids = append(ids[:0], failed...)
	slices.Sort(ids)
	b = append(b, 'F')
	appendUvarint(uint64(len(ids)))
	for _, id := range ids {
		appendUvarint(uint64(id))
	}

	out := sha256.Sum256(b)
	sc.buf, sc.ids = b, ids
	ctxScratchPool.Put(sc)
	return out
}
