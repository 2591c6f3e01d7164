package runner

import (
	"crypto/sha256"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
)

// prefixCache is a bounded snapshot trie keyed by executed event-prefix
// (DESIGN.md §4.9). The DFS/pruned explorers emit interleavings in
// lexicographic order, so consecutive interleavings share long common
// prefixes; instead of resetting to the genesis checkpoint and replaying
// from event 0, the executor restores the deepest cached snapshot whose
// prefix matches the next interleaving and executes only the suffix.
//
// The trie's edges are event IDs: the node reached by walking
// il[0], il[1], ..., il[d-1] from the root represents the prefix il[:d],
// and may carry a snapshot of the full execution context after those d
// events. Snapshots hang off an LRU list and are accounted against a
// byte budget; eviction removes the least-recently-used snapshot and
// prunes any trie branch left empty.
//
// Snapshots are stored as deltas by structural sharing: consecutive
// snapshots reuse the same immutable *replica.StateBuf for every replica
// that did not change between them (the cluster's version-keyed caches
// guarantee pointer identity for clean replicas), so the cache refcounts
// buffers and charges each distinct buffer against the byte budget ONCE —
// a node effectively costs only the replicas that differ from other
// cached prefixes, and the same budget holds far more prefixes. Restore
// needs no path composition: every snapshot still carries its complete
// Bufs array, so eviction order is unconstrained.
//
// A prefixCache is owned by exactly one executor (per worker in the
// pool) and is not safe for concurrent use — per-worker ownership is
// what keeps results byte-identical at every worker count.
type prefixCache struct {
	budget int64 // max total charged snapshot bytes (> 0)
	every  int   // snapshot insertion stride in events (> 0)

	root  *prefixNode
	bytes int64

	// refs counts cached snapshots referencing each state buffer;
	// stateBytes is the charged (deduplicated) state-payload bytes —
	// the runner.prefix_delta_bytes gauge.
	refs       map[*replica.StateBuf]int
	stateBytes int64

	// LRU list of snapshot-bearing nodes; head is most recently used.
	head, tail *prefixNode
}

// prefixNode is one trie node: the prefix formed by the edge labels from
// the root down to it.
type prefixNode struct {
	parent   *prefixNode
	id       event.ID // edge label from parent (zero value at the root)
	children map[event.ID]*prefixNode
	depth    int

	snap *prefixSnapshot // nil for structural (pass-through) nodes

	prev, next *prefixNode // LRU links, set only while snap != nil
}

// prefixSnapshot captures the full execution context after a prefix:
// the serialized replica states plus the executor-side bookkeeping that
// the remaining suffix can observe (captured sync payloads, recorded
// observations, failed ops). DroppedSyncs are absent by construction —
// they only occur under armed faults, and fault-carrying interleavings
// bypass the cache entirely.
type prefixSnapshot struct {
	states  *replica.ClusterSnapshot
	pending map[event.ID][]byte
	obs     map[event.ID]string
	failed  []event.ID
	size    int64
	// ctxHash is the canonical execution-context digest, computed at
	// capture time when state subsumption is enabled (zero otherwise); a
	// cached prefix re-walk reuses it instead of re-serializing the
	// cluster.
	ctxHash [sha256.Size]byte
	// mset is the rolling multiset digest of the captured prefix, so a
	// restore resumes the executor's O(1) rolling updates without
	// recomputing the prefix multiset.
	mset msetDigest
}

// ownBytes is the snapshot's non-state payload (pending, observations,
// failed ops, bookkeeping) — always charged in full; only the state
// buffers participate in delta sharing.
func (s *prefixSnapshot) ownBytes() int64 {
	if s.states == nil {
		return s.size
	}
	return s.size - s.states.Bytes
}

func newPrefixCache(budget int64, every int) *prefixCache {
	if every <= 0 {
		every = defaultPrefixSnapshotEvery
	}
	return &prefixCache{
		budget: budget,
		every:  every,
		root:   &prefixNode{},
		refs:   make(map[*replica.StateBuf]int),
	}
}

// lookup walks the trie along il and returns the deepest cached snapshot
// whose prefix strictly precedes the full interleaving (depth < len(il);
// a full-length restore would skip the execution whose outcome the
// caller needs). The returned snapshot is marked most recently used.
func (c *prefixCache) lookup(il interleave.Interleaving) (*prefixSnapshot, int) {
	node := c.root
	var best *prefixNode
	for d := 0; d < len(il)-1; d++ {
		child, ok := node.children[il[d]]
		if !ok {
			break
		}
		node = child
		if node.snap != nil {
			best = node
		}
	}
	if best == nil {
		return nil, 0
	}
	c.touch(best)
	return best.snap, best.depth
}

// cached returns the snapshot already stored for the prefix il[:depth]
// (nil when absent), refreshing its recency. The executor checks this
// before serializing the cluster, so re-walking a hot prefix costs a
// map-walk rather than a snapshot — and the stored context hash lets
// subsumption re-check the frontier without re-serializing either.
func (c *prefixCache) cached(il interleave.Interleaving, depth int) *prefixSnapshot {
	node := c.root
	for d := 0; d < depth; d++ {
		child, ok := node.children[il[d]]
		if !ok {
			return nil
		}
		node = child
	}
	if node.snap == nil {
		return nil
	}
	c.touch(node)
	return node.snap
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

// charge accounts a snapshot against the budget: its own bytes in full,
// plus each state buffer only on its first reference (refcount 0 → 1).
func (c *prefixCache) charge(snap *prefixSnapshot) {
	if snap.states == nil {
		c.bytes += snap.size
		return
	}
	c.bytes += snap.ownBytes()
	for _, buf := range snap.states.Bufs {
		c.refs[buf]++
		if c.refs[buf] == 1 {
			c.bytes += int64(len(buf.Data))
			c.stateBytes += int64(len(buf.Data))
		}
	}
}

// uncharge reverses charge for one snapshot (eviction / invalidation).
func (c *prefixCache) uncharge(snap *prefixSnapshot) {
	if snap.states == nil {
		c.bytes -= snap.size
		return
	}
	c.bytes -= snap.ownBytes()
	for _, buf := range snap.states.Bufs {
		c.refs[buf]--
		if c.refs[buf] == 0 {
			delete(c.refs, buf)
			c.bytes -= int64(len(buf.Data))
			c.stateBytes -= int64(len(buf.Data))
		}
	}
}

// insert stores a snapshot for the prefix il[:depth], evicting
// least-recently-used snapshots until the byte budget holds. It returns
// the net change in charged bytes (insertion minus evictions), the net
// change in charged deduplicated state bytes (the prefix_delta_bytes
// gauge), and the number of snapshots evicted. A snapshot whose full
// logical size exceeds the whole budget is rejected outright.
func (c *prefixCache) insert(il interleave.Interleaving, depth int, snap *prefixSnapshot) (delta, stateDelta int64, evicted int) {
	if snap.size > c.budget {
		return 0, 0, 0
	}
	node := c.root
	for d := 0; d < depth; d++ {
		child, ok := node.children[il[d]]
		if !ok {
			if node.children == nil {
				node.children = make(map[event.ID]*prefixNode)
			}
			child = &prefixNode{parent: node, id: il[d], depth: node.depth + 1}
			node.children[il[d]] = child
		}
		node = child
	}
	if node.snap != nil {
		// Executions are pure functions of the prefix, so an existing
		// snapshot is identical to the offered one; keep it.
		c.touch(node)
		return 0, 0, 0
	}
	bytes0, state0 := c.bytes, c.stateBytes
	node.snap = snap
	c.charge(snap)
	c.pushFront(node)
	for c.bytes > c.budget && c.tail != nil && c.tail != node {
		c.drop(c.tail)
		evicted++
	}
	return c.bytes - bytes0, c.stateBytes - state0, evicted
}

// invalidate discards every cached snapshot (ConstraintPoll re-pruning
// boundary) and returns the charged and charged-state bytes freed.
func (c *prefixCache) invalidate() (freed, stateFreed int64) {
	freed, stateFreed = c.bytes, c.stateBytes
	c.root = &prefixNode{}
	c.bytes, c.stateBytes = 0, 0
	c.refs = make(map[*replica.StateBuf]int)
	c.head, c.tail = nil, nil
	return freed, stateFreed
}

// drop removes one snapshot-bearing node from the LRU list and the trie,
// pruning newly-empty ancestors.
func (c *prefixCache) drop(node *prefixNode) {
	c.uncharge(node.snap)
	c.unlink(node)
	node.snap = nil
	for n := node; n.parent != nil && n.snap == nil && len(n.children) == 0; n = n.parent {
		delete(n.parent.children, n.id)
	}
}

func (c *prefixCache) touch(node *prefixNode) {
	if c.head == node {
		return
	}
	c.unlink(node)
	c.pushFront(node)
}

func (c *prefixCache) pushFront(node *prefixNode) {
	node.prev = nil
	node.next = c.head
	if c.head != nil {
		c.head.prev = node
	}
	c.head = node
	if c.tail == nil {
		c.tail = node
	}
}

func (c *prefixCache) unlink(node *prefixNode) {
	if node.prev != nil {
		node.prev.next = node.next
	} else if c.head == node {
		c.head = node.next
	}
	if node.next != nil {
		node.next.prev = node.prev
	} else if c.tail == node {
		c.tail = node.prev
	}
	node.prev, node.next = nil, nil
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
