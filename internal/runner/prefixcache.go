package runner

import (
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
)

// prefixCache is a bounded stack of snapshots along the interleaving the
// executor last walked (DESIGN.md §4.9). The ModeERPi/ModeDFS explorers
// emit interleavings in strictly increasing lexicographic order, and so
// does each pool worker's own item sequence, so an executor that leaves a
// prefix never comes back to it: the only snapshots a later interleaving
// can restore are those along the path it shares with the last one.
// Instead of resetting to the genesis checkpoint and replaying from event
// 0, the executor restores the deepest of them and executes only the
// suffix.
//
// Entries are pushed in increasing depth while an interleaving runs, and
// popped when the next one diverges above them. Each entry is charged at
// its full logical size against the byte budget; a push that would exceed
// it is refused.
//
// A prefixCache is owned by exactly one executor (per worker in the
// pool) and is not safe for concurrent use — per-worker ownership is
// what keeps results byte-identical at every worker count.
type prefixCache struct {
	budget int64 // max total snapshot bytes (> 0)
	every  int   // snapshot insertion stride in events (> 0)

	// path is the interleaving the executor last looked up; every entry
	// of stack is a snapshot of one of its prefixes, deepest last.
	path  interleave.Interleaving
	stack []prefixEntry
	bytes int64
}

// prefixEntry is the snapshot of path[:depth].
type prefixEntry struct {
	depth int
	snap  *prefixSnapshot
}

// prefixSnapshot is the execution context after a prefix, as far as the
// executor does not hold it already: the serialized replica states and the
// rolling multiset digest of the prefix, so a restore resumes the
// executor's O(1) rolling updates without recomputing it. The bookkeeping
// the suffix can observe — captured sync payloads, observations, failed
// ops — stays in the executor's slots, which are right for every prefix on
// the stack (DESIGN.md §4.9). DroppedSyncs are absent by construction —
// they only occur under armed faults, and fault-carrying interleavings
// bypass the cache entirely.
type prefixSnapshot struct {
	states *replica.ClusterSnapshot
	mset   msetDigest
	// size is what the entry is charged against the budget: the logical
	// size of the whole context, states plus slotBytes of the prefix.
	size int64
}

// slotBytes is the logical size of the bookkeeping in the slots: 8 bytes
// per entry plus each captured payload and observation.
func slotBytes(slots []eventSlot) int64 {
	var n int64
	for i := range slots {
		s := &slots[i]
		if s.flags&slotCaptured != 0 {
			n += int64(len(s.payload)) + 8
		}
		if s.obs != "" {
			n += int64(len(s.obs)) + 8
		}
		if s.flags&slotFailed != 0 {
			n += 8
		}
	}
	return n
}

func newPrefixCache(budget int64, every int) *prefixCache {
	return &prefixCache{budget: budget, every: every}
}

// lookup moves the cache onto il. It pops every entry deeper than il's
// common prefix with the last path — or than len(il)-1: a full-length
// restore would skip the execution whose outcome the caller needs — and
// returns the top entry left (zero when the stack is empty), the common
// prefix length (the divergence depth replay snapshots at), and the bytes
// the pops freed.
func (c *prefixCache) lookup(il interleave.Interleaving) (top prefixEntry, divergence int, freed int64) {
	divergence = commonPrefixLen(c.path, il)
	keep := min(divergence, len(il)-1)
	c.path = il
	n := len(c.stack)
	for ; n > 0 && c.stack[n-1].depth > keep; n-- {
		freed += c.stack[n-1].snap.size
		c.stack[n-1] = prefixEntry{}
	}
	c.stack = c.stack[:n]
	c.bytes -= freed
	if n > 0 {
		top = c.stack[n-1]
	}
	return top, divergence, freed
}

// wantSnapshot reports whether the executor should snapshot at depth
// while executing il: every K events, plus the divergence depth against
// the previous interleaving (the deepest prefix the next lexicographic
// interleaving can possibly share), plus the explorer-announced pivot —
// the depth where the explorer says its next yield will actually
// diverge, so the next lookup hits a snapshot at exactly its maximal
// shared prefix (pivot < 0 when the explorer cannot predict).
func (c *prefixCache) wantSnapshot(depth, divergence, pivot int) bool {
	return depth%c.every == 0 || depth == divergence || depth == pivot
}

// insert pushes the snapshot of path[:depth], which lies deeper than
// every entry on the stack. It reports false, keeping nothing, when the
// snapshot would take the stack over its byte budget.
func (c *prefixCache) insert(depth int, snap *prefixSnapshot) bool {
	if c.bytes+snap.size > c.budget {
		return false
	}
	c.stack = append(c.stack, prefixEntry{depth: depth, snap: snap})
	c.bytes += snap.size
	return true
}

// invalidate discards every snapshot (ConstraintPoll re-pruning
// boundary) and returns the bytes freed.
func (c *prefixCache) invalidate() (freed int64) {
	freed = c.bytes
	clear(c.stack)
	c.stack, c.path, c.bytes = c.stack[:0], nil, 0
	return freed
}

// commonPrefixLen returns the length of the longest common prefix of two
// interleavings.
func commonPrefixLen(a, b interleave.Interleaving) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
