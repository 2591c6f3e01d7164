package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"

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
// a frontier visited by any worker prunes all of them — so one mutex
// guards it. The map holds at most max entries; eviction is FIFO over a
// queue threaded through the entries in insertion order, and a full table
// reuses the entry it evicts for the one it inserts.
type subsumeTable struct {
	mu         sync.Mutex
	max        int // entries the byte budget holds
	entries    map[subsumeKey]*subsumeEntry
	head, tail *subsumeEntry // eviction queue, oldest at head
	// spare is the rest of the last block of entries allocated at once:
	// a growing table takes its entries from it, one allocation per
	// entryBlock entries.
	spare []subsumeEntry
}

// entryBlock is how many entries a growing table allocates at once.
const entryBlock = 64

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
	class  uint64        // prune.Completions key of that recorder's prefix
	next   *subsumeEntry // younger neighbour in the eviction queue
}

// subsumeEntryBytes approximates one entry's cost (key bytes, witness,
// queue link, map bucket) when accounting against the byte budget.
const subsumeEntryBytes = 2*sha256.Size + 48

func newSubsumeTable(budget int64) *subsumeTable {
	return &subsumeTable{max: int(budget / subsumeEntryBytes), entries: make(map[subsumeKey]*subsumeEntry)}
}

// visit is the one-shot check-and-record at a context point of the
// interleaving with exploration index `index`, after `prefix` of
// completion class `class`. found=true when a strictly smaller index
// recorded the same frontier via a different prefix — the witness, whose
// class it returns; the caller decides whether it stands for the rest of
// the interleaving and abandons it with ErrSubsumed. Otherwise the
// frontier is recorded (adopting the current index when it is the
// smaller reacher) and execution continues. An equal prefix hash is never
// a witness: it is the same literal prefix (a retry, or a later
// interleaving re-walking a shared prefix), whose completion from here is
// the current interleaving itself. A prefix-hash collision can therefore
// only cost a skip, never cause one. delta is the net change in
// accounted bytes, for the subsumption_table_bytes gauge: an entry while
// the table grows, nothing once it is full and every insert evicts the
// oldest entry (dropping entries is always sound: fewer skips).
func (t *subsumeTable) visit(ctx [sha256.Size]byte, rem msetDigest, class uint64, prefix interleave.Interleaving, index int) (witness uint64, found bool, delta int64) {
	key := subsumeKey{ctx: ctx, rem: rem}
	ph := prefixHash(prefix)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		switch {
		case e.prefix == ph: // the same literal prefix: never a witness
		case e.index < index:
			return e.class, true, 0
		case e.index > index:
			// The current interleaving is the smaller reacher: adopt it so
			// future arrivals compare against the minimum. Same place in
			// the queue.
			e.index, e.prefix, e.class = index, ph, class
		}
		return 0, false, 0
	}
	if t.max == 0 {
		return 0, false, 0
	}
	var e *subsumeEntry
	if len(t.entries) < t.max {
		if len(t.spare) == 0 {
			t.spare = make([]subsumeEntry, min(entryBlock, t.max-len(t.entries)))
		}
		e, t.spare = &t.spare[0], t.spare[1:]
		delta = subsumeEntryBytes
	} else {
		e = t.head
		t.head = e.next
		delete(t.entries, e.key)
	}
	*e = subsumeEntry{key: key, index: index, prefix: ph, class: class}
	t.entries[key] = e
	if t.head == nil {
		t.head = e
	} else {
		t.tail.next = e
	}
	t.tail = e
	return 0, false, delta
}

// invalidate discards every entry (the re-pruning boundary, mirroring the
// prefix cache) and returns the bytes freed.
func (t *subsumeTable) invalidate() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	freed := int64(len(t.entries)) * subsumeEntryBytes
	clear(t.entries)
	t.head, t.tail = nil, nil
	return freed
}

// prefixHash is 64-bit FNV-1a over the prefix's event IDs, each
// uvarint-encoded (a prefix-free code, so distinct sequences are distinct
// byte strings). It tells a frontier's recorder apart from a re-walk of
// the same literal prefix without storing the prefix.
func prefixHash(prefix interleave.Interleaving) uint64 {
	h := uint64(fnvOffset64)
	var tmp [binary.MaxVarintLen64]byte
	for _, id := range prefix {
		h = fnv1a(h, binary.AppendUvarint(tmp[:0], uint64(id)))
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

// ctxScratch is the reusable working memory of contextHash: the digest
// preimage buffer. Each executor owns one, so the hot path's per-depth
// hashing allocates nothing in steady state.
type ctxScratch struct {
	buf []byte
}

// contextHash digests the full execution context after a prefix: the
// canonical cluster snapshot plus everything else the remaining suffix
// can observe, read from the executor's slots — captured sync payloads,
// recorded observations, and failed ops (DroppedSyncs are absent because
// a run with faults has no table). Every slot outside the
// prefix is clear, so a walk in event-ID order visits exactly the prefix's
// entries, sorted, with no map and no sort. The cluster enters via its
// hash-of-hashes encoding (32 bytes per replica, served from the
// per-replica caches) and a payload via its SHA-256, computed once per
// captured payload and kept in its slot: the same Merkle argument, so the
// digest stays injective over contexts with every section count-prefixed
// and every variable-length field length-prefixed.
func contextHash(sc *ctxScratch, states *replica.ClusterSnapshot, slots []eventSlot) [sha256.Size]byte {
	var nPending, nObs, nFailed uint64
	for i := range slots {
		s := &slots[i]
		if s.flags&slotCaptured != 0 {
			nPending++
		}
		if s.obs != "" {
			nObs++
		}
		if s.flags&slotFailed != 0 {
			nFailed++
		}
	}
	b := states.AppendHashEncoding(sc.buf[:0])

	b = append(b, 'P')
	b = binary.AppendUvarint(b, nPending)
	for i := range slots {
		s := &slots[i]
		if s.flags&slotCaptured == 0 {
			continue
		}
		if s.flags&slotSummed == 0 {
			s.sum = sha256.Sum256(s.payload)
			s.flags |= slotSummed
		}
		b = binary.AppendUvarint(b, uint64(i))
		b = append(b, s.sum[:]...)
	}

	b = append(b, 'O')
	b = binary.AppendUvarint(b, nObs)
	for i := range slots {
		if obs := slots[i].obs; obs != "" {
			b = binary.AppendUvarint(b, uint64(i))
			b = binary.AppendUvarint(b, uint64(len(obs)))
			b = append(b, obs...)
		}
	}

	b = append(b, 'F')
	b = binary.AppendUvarint(b, nFailed)
	for i := range slots {
		if slots[i].flags&slotFailed != 0 {
			b = binary.AppendUvarint(b, uint64(i))
		}
	}

	sc.buf = b
	return sha256.Sum256(b)
}
