// Package replica provides the replica runtime ER-π replays interleavings
// against: a State interface that every evaluation subject implements, a
// Node binding a state to a replica identity, and a Cluster that manages
// checkpointing and resetting replica states between interleavings
// (paper §4.3: "ER-π checkpoints the replicas' states and resets them prior
// to executing each interleaving").
package replica

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/er-pi/erpi/internal/event"
)

// ErrFailedOp marks an RDL operation rejected by the data structure's
// constraints (e.g. adding an element a set already holds). Failed ops are
// expected outcomes during exhaustive replay — the runner records them
// instead of aborting, and they feed the Failed-Ops pruning algorithm.
var ErrFailedOp = errors.New("replica: operation failed by data-type constraint")

// Op is one RDL operation invoked by application logic, extracted from a
// recorded event during replay.
type Op struct {
	Name string
	Args []string
}

// String renders "name(arg1,arg2)".
func (o Op) String() string {
	if len(o.Args) == 0 {
		return o.Name
	}
	return o.Name + "(" + strings.Join(o.Args, ",") + ")"
}

// State is the contract between ER-π and an application's replicated
// state. Implementations wrap the subject's RDL integration.
type State interface {
	// Apply executes a local RDL operation (an Update or Observe event) and
	// returns its observable result ("" when none).
	Apply(op Op) (string, error)
	// SyncPayload produces the synchronization request this replica would
	// send right now (full state for state-based CRDTs, pending ops for
	// op-based ones).
	SyncPayload() ([]byte, error)
	// ApplySync executes a received synchronization request.
	ApplySync(payload []byte) error
	// Snapshot serializes the state for checkpointing. The snapshot must
	// capture ALL behavior-relevant state — logical clocks, arrival
	// counters, tombstones — not just the observable value: the engine
	// relies on Restore(Snapshot()) resuming execution mid-interleaving
	// with byte-identical behavior (prefix-cache suffix replay, §4.9).
	Snapshot() ([]byte, error)
	// Restore resets the state from a snapshot. After Restore the state
	// must behave exactly as it did when the snapshot was taken.
	Restore(snapshot []byte) error
	// Fingerprint returns a canonical digest of the observable state, used
	// by divergence assertions. Equal states must produce equal
	// fingerprints.
	Fingerprint() string
}

// Versioned is an optional State extension: a monotone counter bumped on
// every mutation (apply, sync, restore). The cluster uses it to prove a
// replica's state unchanged since the last serialization and reuse the
// cached bytes, hash, and fingerprint (DESIGN.md §4.15). An implementation
// may over-count (bump on a no-op) — that only costs a cache miss — but
// must never under-count: a mutation without a bump would let a stale
// snapshot stand in for live state.
type Versioned interface {
	StateVersion() uint64
}

// StateBuf is one replica's serialized state with its SHA-256 digest.
// Bufs are immutable once built and shared freely: consecutive cluster
// snapshots reuse the same *StateBuf for replicas that did not change
// between them, which is what makes the prefix cache's delta accounting
// (charging each distinct buffer once) work.
type StateBuf struct {
	Data []byte
	Hash [sha256.Size]byte
}

func newStateBuf(data []byte) *StateBuf {
	return &StateBuf{Data: data, Hash: sha256.Sum256(data)}
}

// Node binds a State to a replica identity.
type Node struct {
	ID    event.ReplicaID
	State State

	// checkpoint is the node's genesis (or last CheckpointNode) state,
	// nil until the first checkpoint.
	checkpoint *StateBuf

	// Version-keyed caches (valid only while the state implements
	// Versioned and its counter still equals the recorded one).
	bufVer uint64
	buf    *StateBuf
	fpVer  uint64
	fp     string
	fpOK   bool
	// payload is the last SyncPayload, built at version payloadVer.
	payloadVer uint64
	payload    []byte
	payloadOK  bool
}

// Cluster is the set of replicas one scenario replays against.
type Cluster struct {
	nodes map[event.ReplicaID]*Node
	// list holds the nodes in ascending ID order, parallel to ids: every
	// whole-cluster walk goes through it, so none depends on map order or
	// pays for map iteration.
	list []*Node
	ids  []event.ReplicaID
	// full disables incremental reuse (Config escape hatch): every
	// snapshot and fingerprint is recomputed from scratch. The hash
	// DEFINITIONS are identical either way — full mode only trades speed
	// for bisectability, never changes a digest.
	full bool
}

// NewCluster builds a cluster from per-replica states.
func NewCluster(states map[event.ReplicaID]State) *Cluster {
	c := &Cluster{nodes: make(map[event.ReplicaID]*Node, len(states))}
	for id, st := range states {
		n := &Node{ID: id, State: st}
		c.nodes[id] = n
		c.list = append(c.list, n)
	}
	slices.SortFunc(c.list, func(a, b *Node) int { return cmp.Compare(a.ID, b.ID) })
	c.ids = make([]event.ReplicaID, len(c.list))
	for i, n := range c.list {
		c.ids[i] = n.ID
	}
	return c
}

// SetFullHashing disables (true) or re-enables (false) incremental state
// reuse. Digests are identical either way; full mode exists so a
// suspected caching bug can be bisected out with one switch.
func (c *Cluster) SetFullHashing(full bool) { c.full = full }

// Node returns the node for a replica.
func (c *Cluster) Node(id event.ReplicaID) (*Node, error) {
	n, ok := c.nodes[id]
	if !ok {
		return nil, fmt.Errorf("replica: unknown replica %s", id)
	}
	return n, nil
}

// IDs returns the sorted replica identities. The slice is shared — do
// not mutate it.
func (c *Cluster) IDs() []event.ReplicaID {
	return c.ids
}

// Nodes returns the nodes in ascending ID order, parallel to IDs. The
// slice is shared — do not mutate it.
func (c *Cluster) Nodes() []*Node {
	return c.list
}

// nodeBuf returns the node's current serialized state, reusing the cached
// buffer when the state's version counter proves it unchanged since the
// last serialization. reused reports a cache hit.
func (c *Cluster) nodeBuf(n *Node) (buf *StateBuf, reused bool, err error) {
	v, versioned := n.State.(Versioned)
	if versioned && !c.full {
		ver := v.StateVersion()
		if n.buf != nil && n.bufVer == ver {
			return n.buf, true, nil
		}
		data, err := n.State.Snapshot()
		if err != nil {
			return nil, false, err
		}
		buf = newStateBuf(data)
		n.buf, n.bufVer = buf, ver
		return buf, false, nil
	}
	data, err := n.State.Snapshot()
	if err != nil {
		return nil, false, err
	}
	return newStateBuf(data), false, nil
}

// SyncPayload returns the node's sync payload, reusing the last one built
// while the state's version counter proves it unchanged since — a payload
// is a function of its sender's state alone, and merging the same bytes
// twice is the same join. Non-Versioned states and full mode always
// rebuild. Sharing one buffer between receivers is safe because payloads
// are immutable once handed out: the executor's pending map, the prefix
// cache and the coordinator keep them as they are, and fault.Injector.Payload
// truncates by re-slicing with a capped capacity, never by writing.
func (c *Cluster) SyncPayload(n *Node) ([]byte, error) {
	v, versioned := n.State.(Versioned)
	if !versioned || c.full {
		return n.State.SyncPayload()
	}
	ver := v.StateVersion()
	if n.payloadOK && n.payloadVer == ver {
		return n.payload, nil
	}
	p, err := n.State.SyncPayload()
	if err != nil {
		return nil, err
	}
	n.payload, n.payloadVer, n.payloadOK = p, ver, true
	return p, nil
}

// adoptBuf records buf as the node's current serialized state, so the
// first snapshot after a restore re-serializes only replicas the suffix
// actually touched.
func (n *Node) adoptBuf(buf *StateBuf) {
	if v, ok := n.State.(Versioned); ok {
		n.buf, n.bufVer = buf, v.StateVersion()
	}
	n.fpOK = false
}

// Checkpoint snapshots every replica's current state.
func (c *Cluster) Checkpoint() error {
	for _, n := range c.list {
		if err := c.checkpointNode(n); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) checkpointNode(n *Node) error {
	buf, _, err := c.nodeBuf(n)
	if err != nil {
		return fmt.Errorf("replica: checkpoint %s: %w", n.ID, err)
	}
	n.checkpoint = buf
	return nil
}

// CheckpointNode snapshots a single replica's current state, leaving the
// other replicas' checkpoints untouched (used by fault injection to model
// per-replica durable storage).
func (c *Cluster) CheckpointNode(id event.ReplicaID) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	return c.checkpointNode(n)
}

// ResetNode restores a single replica to its last checkpoint — the
// crash-recovery primitive: a crashed replica loses its volatile state and
// restarts from durable storage while the others keep running.
func (c *Cluster) ResetNode(id event.ReplicaID) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	return n.reset()
}

// Reset restores every replica to the last checkpoint.
func (c *Cluster) Reset() error {
	for _, n := range c.list {
		if err := n.reset(); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) reset() error {
	if n.checkpoint == nil {
		return fmt.Errorf("replica: no checkpoint for %s", n.ID)
	}
	if err := n.State.Restore(n.checkpoint.Data); err != nil {
		return fmt.Errorf("replica: reset %s: %w", n.ID, err)
	}
	n.adoptBuf(n.checkpoint)
	return nil
}

// ClusterSnapshot is a canonical point-in-time serialization of every
// replica's state: replicas appear in sorted ID order, so two clusters in
// equal states always produce snapshots with identical structure. It is
// both the prefix cache's restore unit and the input to state-hash
// subsumption (DESIGN.md §4.12), which is why the ordering must be
// canonical rather than map-iteration incidental.
type ClusterSnapshot struct {
	// IDs are the replica identities in ascending order.
	IDs []event.ReplicaID
	// Bufs holds each replica's serialized state with its per-replica
	// SHA-256, parallel to IDs. Bufs are immutable and may be shared
	// across snapshots (the node-level cache returns the same *StateBuf
	// while a replica is clean).
	Bufs []*StateBuf
	// Bytes is the total size of the snapshot payloads — the unit the
	// prefix cache's byte budget accounts in.
	Bytes int64
	// Dirty counts the replicas that had to be re-serialized to build
	// this snapshot; Reused is the payload bytes served from per-replica
	// caches instead (snapshot.dirty_replicas / snapshot.bytes_reused).
	Dirty  int
	Reused int64
}

// CanonicalSnapshot serializes every replica's current (possibly mid-run)
// state without touching the genesis checkpoints, in canonical sorted-ID
// order. Replicas whose version counter proves them unchanged since their
// last serialization reuse the cached buffer — the per-depth cost is
// O(dirty replicas), not O(cluster).
func (c *Cluster) CanonicalSnapshot() (*ClusterSnapshot, error) {
	snap := &ClusterSnapshot{Bufs: make([]*StateBuf, 0, len(c.list))}
	if err := c.SnapshotInto(snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// SnapshotInto is CanonicalSnapshot into a caller-owned snapshot,
// overwriting it and reusing its Bufs array: a caller that only hashes the
// snapshot and drops it (the subsumption check) allocates nothing for
// clean replicas. The buffers themselves stay immutable and shared.
func (c *Cluster) SnapshotInto(snap *ClusterSnapshot) error {
	*snap = ClusterSnapshot{IDs: c.ids, Bufs: snap.Bufs[:0]}
	for _, n := range c.list {
		buf, reused, err := c.nodeBuf(n)
		if err != nil {
			return fmt.Errorf("replica: snapshot %s: %w", n.ID, err)
		}
		snap.Bufs = append(snap.Bufs, buf)
		snap.Bytes += int64(len(buf.Data))
		if reused {
			snap.Reused += int64(len(buf.Data))
		} else {
			snap.Dirty++
		}
	}
	return nil
}

// RestoreSnapshot restores every replica from a mid-run snapshot (as
// produced by CanonicalSnapshot). Every node in the cluster must be
// covered; the genesis checkpoints are left untouched. Restored buffers
// are adopted into the per-node caches, so the next CanonicalSnapshot
// re-serializes only replicas the resumed suffix touches. A replica whose
// live state is still the snapshot's buffer — Versioned, that buffer
// cached at the current version — is not restored at all: by the
// Restore(Snapshot()) contract, restoring it would change nothing (full
// mode restores every replica).
func (c *Cluster) RestoreSnapshot(snap *ClusterSnapshot) error {
	if len(snap.IDs) != len(c.list) {
		return fmt.Errorf("replica: snapshot covers %d replicas, cluster has %d", len(snap.IDs), len(c.list))
	}
	for i, id := range snap.IDs {
		n := c.list[i]
		if n.ID != id {
			var ok bool
			if n, ok = c.nodes[id]; !ok {
				return fmt.Errorf("replica: snapshot for unknown replica %s", id)
			}
		}
		if !c.full && n.holds(snap.Bufs[i]) {
			continue
		}
		if err := n.State.Restore(snap.Bufs[i].Data); err != nil {
			return fmt.Errorf("replica: restore %s: %w", id, err)
		}
		n.adoptBuf(snap.Bufs[i])
	}
	return nil
}

// holds reports whether the node's live state is buf: buf is its cached
// serialization and the state's version counter has not moved since.
func (n *Node) holds(buf *StateBuf) bool {
	if n.buf != buf {
		return false
	}
	v, ok := n.State.(Versioned)
	return ok && n.bufVer == v.StateVersion()
}

// AppendCanonical appends the snapshot's canonical byte encoding to b:
// for each replica in sorted ID order, a uvarint-length-prefixed ID
// followed by its uvarint-length-prefixed state snapshot. The encoding is
// injective — length prefixes prevent boundary ambiguity — so two
// snapshots encode identically iff every replica's serialized state is
// identical.
func (s *ClusterSnapshot) AppendCanonical(b []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for i, id := range s.IDs {
		n := binary.PutUvarint(tmp[:], uint64(len(id)))
		b = append(b, tmp[:n]...)
		b = append(b, id...)
		n = binary.PutUvarint(tmp[:], uint64(len(s.Bufs[i].Data)))
		b = append(b, tmp[:n]...)
		b = append(b, s.Bufs[i].Data...)
	}
	return b
}

// AppendHashEncoding appends the snapshot's hash-of-hashes preimage to b:
// for each replica in sorted ID order, a uvarint-length-prefixed ID
// followed by the replica's fixed-size state SHA-256. Two snapshots
// produce equal encodings iff every replica's serialized state hashes
// equal — with SHA-256 collision resistance, iff the states are
// byte-identical, the same soundness AppendCanonical gives at a fraction
// of the bytes (Merkle-CRDT-style composition; DESIGN.md §4.15).
func (s *ClusterSnapshot) AppendHashEncoding(b []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for i, id := range s.IDs {
		n := binary.PutUvarint(tmp[:], uint64(len(id)))
		b = append(b, tmp[:n]...)
		b = append(b, id...)
		b = append(b, s.Bufs[i].Hash[:]...)
	}
	return b
}

// Hash returns the SHA-256 digest over the hash-of-hashes encoding. This
// is THE cluster state digest everywhere (subsumption context hashes,
// forensic step hashes): incremental and full hashing modes compute the
// exact same value, they only differ in how much serialization it costs.
func (s *ClusterSnapshot) Hash() [sha256.Size]byte {
	var stack [192]byte
	return sha256.Sum256(s.AppendHashEncoding(stack[:0]))
}

// nodeFingerprint returns the node's fingerprint through the
// version-keyed cache.
func (c *Cluster) nodeFingerprint(n *Node) string {
	v, versioned := n.State.(Versioned)
	if !versioned || c.full {
		return n.State.Fingerprint()
	}
	ver := v.StateVersion()
	if n.fpOK && n.fpVer == ver {
		return n.fp
	}
	n.fp, n.fpVer, n.fpOK = n.State.Fingerprint(), ver, true
	return n.fp
}

// Fingerprints returns every replica's current state fingerprint,
// reusing cached fingerprints for replicas unchanged since the last call
// (the assert stage re-fingerprints the cluster after Finalize; with
// version tracking that reuses the execution-time work instead of
// re-serializing converged state).
func (c *Cluster) Fingerprints() map[event.ReplicaID]string {
	out := make(map[event.ReplicaID]string, len(c.list))
	for _, n := range c.list {
		out[n.ID] = c.nodeFingerprint(n)
	}
	return out
}

// Converged reports whether every replica has the same fingerprint.
func (c *Cluster) Converged() bool {
	if len(c.list) == 0 {
		return true
	}
	first := c.nodeFingerprint(c.list[0])
	for _, n := range c.list[1:] {
		if c.nodeFingerprint(n) != first {
			return false
		}
	}
	return true
}
