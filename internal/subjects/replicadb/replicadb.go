// Package replicadb re-implements the replication core of ReplicaDB
// (evaluation subject 3): bulk data transfer between a source table and a
// sink table, with complete and incremental replication modes and a
// bounded fetch buffer feeding parallel sink writers.
//
// Two seedable defects reproduce the paper's ReplicaDB bug benchmarks:
//
//   - BugUnboundedBuffer (issue #79, "out of memory error"): the fetch
//     path ignores the buffer bound, so interleavings in which fetches
//     outpace sink drains grow the buffer past the memory budget.
//   - BugMissTombstones (issue #23, "deleted records aren't getting
//     deleted from the sink tables"): incremental mode transfers only row
//     upserts, so deletes that land after the snapshot cut never reach
//     the sink.
package replicadb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// Flags seed the known defects.
type Flags struct {
	BugUnboundedBuffer bool `json:"bug_unbounded_buffer"`
	BugMissTombstones  bool `json:"bug_miss_tombstones"`
	// NoVersionResolution disables version-based conflict resolution on
	// sync: incoming rows overwrite unconditionally (misconception #1
	// seed — relying on delivery order instead of the resolution step).
	NoVersionResolution bool `json:"no_version_resolution"`
	// BufferLimit is the fetch-buffer budget in rows (default 4).
	BufferLimit int `json:"buffer_limit,omitempty"`
}

// row is one record. Version orders cross-replica upserts (LWW); Seq is
// the local apply order, the basis of incremental snapshot cuts — a row
// adopted from a peer is a NEW local change even though its Version is
// old, so the two counters must be distinct.
type row struct {
	Key     string
	Value   string
	Version uint64
	Deleted bool
	Seq     uint64
}

// Node is one replica running a ReplicaDB instance: it owns a source
// table, a sink table, and the transfer machinery between them. Sync
// between replicas exchanges source tables (the upstream replication
// path). Both tables are held in the order they are serialised, ascending
// key, and rows are found by binary search (DESIGN.md §4.16).
type Node struct {
	flags   Flags
	version uint64
	source  []row
	sink    []row
	// buffer is the in-flight fetch buffer between source reads and sink
	// writes.
	buffer []row
	// peakBuffer tracks the high-water mark (the OOM metric of issue #79).
	peakBuffer int
	// seq is the local apply-order counter.
	seq uint64
	// snapshotCut is the Seq bound of the last snapshot-based incremental
	// transfer.
	snapshotCut uint64
	// stateVer counts mutations for snapshot- and payload-cache
	// invalidation (replica.Versioned) — distinct from version, which
	// orders LWW row conflicts. Every exported mutator bumps it, so a
	// caller outside Apply keeps the contract too; readSink/readSource/
	// peakBuffer are pure and leave it untouched.
	stateVer uint64

	// Scratch, never state: the render sort slice, decoded sync rows, and
	// the tables Restore decodes into before it swaps them in.
	rows     []*row
	incoming []rowView
	spare    [3][]row
}

// rowView is a decoded row whose strings alias the payload.
type rowView struct {
	key, value []byte
	version    uint64
	deleted    bool
}

// findRow returns the index of key in the key-ordered table, or where it
// would go.
func findRow[K string | []byte](table []row, key K) (int, bool) {
	lo, hi := 0, len(table)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if table[m].Key < string(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(table) && table[lo].Key == string(key)
}

// put stores r in the key-ordered table at i (from findRow), over the row
// there when found.
func put(table []row, i int, found bool, r row) []row {
	if found {
		table[i] = r
		return table
	}
	return slices.Insert(table, i, r)
}

var (
	_ replica.State     = (*Node)(nil)
	_ replica.Versioned = (*Node)(nil)
)

// StateVersion implements replica.Versioned.
func (n *Node) StateVersion() uint64 { return n.stateVer }

// New returns an empty node.
func New(flags Flags) *Node {
	if flags.BufferLimit == 0 {
		flags.BufferLimit = 4
	}
	return &Node{flags: flags}
}

// Insert upserts a source row.
func (n *Node) Insert(key, value string) {
	n.stateVer++
	n.version++
	n.seq++
	i, found := findRow(n.source, key)
	n.source = put(n.source, i, found, row{Key: key, Value: value, Version: n.version, Seq: n.seq})
}

// Delete tombstones a source row; fails when absent.
func (n *Node) Delete(key string) error {
	n.stateVer++
	i, ok := findRow(n.source, key)
	if !ok || n.source[i].Deleted {
		return replica.ErrFailedOp
	}
	n.version++
	n.seq++
	r := &n.source[i]
	r.Deleted = true
	r.Version = n.version
	r.Seq = n.seq
	return nil
}

// Fetch moves up to batch source rows into the transfer buffer. With
// BugUnboundedBuffer the buffer bound is ignored; otherwise a fetch that
// would exceed the bound fails (back-pressure).
func (n *Node) Fetch(batch int) error {
	n.stateVer++
	if !n.flags.BugUnboundedBuffer && len(n.buffer)+batch > n.flags.BufferLimit {
		return replica.ErrFailedOp // back-pressure: retry after drain
	}
	// Naive cursor: refetch the first live rows in key order every time;
	// the buffer-growth behaviour is what the defect exercises.
	fetched := 0
	for i := 0; i < len(n.source) && fetched < batch; i++ {
		if !n.source[i].Deleted {
			n.buffer = append(n.buffer, n.source[i])
			fetched++
		}
	}
	if len(n.buffer) > n.peakBuffer {
		n.peakBuffer = len(n.buffer)
	}
	return nil
}

// Drain writes every buffered row into the sink and empties the buffer.
func (n *Node) Drain() {
	n.stateVer++
	for _, r := range n.buffer {
		n.applySink(r)
	}
	n.buffer = n.buffer[:0]
}

// TransferComplete replicates the full source table (upserts and deletes)
// into the sink.
func (n *Node) TransferComplete() {
	n.stateVer++
	for _, r := range n.source {
		n.applySink(r)
	}
	n.snapshotCut = n.seq
}

// TransferIncremental replicates rows changed since the last snapshot cut.
// With BugMissTombstones, deleted rows are skipped (issue #23).
func (n *Node) TransferIncremental() {
	n.stateVer++
	for _, r := range n.source {
		if r.Seq <= n.snapshotCut {
			continue
		}
		if r.Deleted && n.flags.BugMissTombstones {
			continue // defect: deletes never reach the sink
		}
		n.applySink(r)
	}
	n.snapshotCut = n.seq
}

func (n *Node) applySink(r row) {
	i, ok := findRow(n.sink, r.Key)
	if ok && n.sink[i].Version >= r.Version {
		return
	}
	n.sink = put(n.sink, i, ok, r)
}

// PeakBuffer returns the buffer high-water mark.
func (n *Node) PeakBuffer() int { return n.peakBuffer }

// SinkRows renders the live sink contents canonically.
func (n *Node) SinkRows() string { return n.render(n.sink) }

// SourceRows renders the live source contents canonically.
func (n *Node) SourceRows() string { return n.render(n.source) }

func (n *Node) render(table []row) string {
	var buf [128]byte
	return string(n.appendRows(buf[:0], table))
}

// appendRows appends the table's live rows as comma-joined "key=value", in
// ascending order of that rendered text. The table is in key order, which
// differs from it only around keys that extend one another, so the sort
// has little to move.
func (n *Node) appendRows(b []byte, table []row) []byte {
	n.rows = n.rows[:0]
	for i := range table {
		if !table[i].Deleted {
			n.rows = append(n.rows, &table[i])
		}
	}
	slices.SortFunc(n.rows, cmpRendered)
	for i, r := range n.rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, r.Key...), '='), r.Value...)
	}
	return b
}

// cmpRendered orders rows the way their rendered "key=value" strings
// sort, without building them. That is not key order: "k10=…" sorts
// before "k1=…", because '0' < '='.
func cmpRendered(a, b *row) int {
	la, lb := len(a.Key)+1+len(a.Value), len(b.Key)+1+len(b.Value)
	for i := 0; i < min(la, lb); i++ {
		if ca, cb := renderedByte(a, i), renderedByte(b, i); ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	return cmp.Compare(la, lb)
}

// renderedByte is byte i of r's rendered "key=value".
func renderedByte(r *row, i int) byte {
	if i < len(r.Key) {
		return r.Key[i]
	}
	if i == len(r.Key) {
		return '='
	}
	return r.Value[i-len(r.Key)-1]
}

// Apply implements replica.State. Ops:
//
//	insert(key, value)       upsert a source row
//	delete(key)              tombstone a source row
//	fetch(batch)             buffer rows for transfer
//	drain()                  flush the buffer into the sink
//	transferComplete()       full-table replication
//	transferIncremental()    changed-rows replication
//	readSink()               -> canonical sink contents
//	readSource()             -> canonical source contents
//	peakBuffer()             -> high-water mark of the fetch buffer
func (n *Node) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "insert":
		n.Insert(op.Args[0], op.Args[1])
		return "", nil
	case "delete":
		return "", n.Delete(op.Args[0])
	case "fetch":
		batch, err := strconv.Atoi(op.Args[0])
		if err != nil {
			return "", fmt.Errorf("replicadb: bad batch: %w", err)
		}
		return "", n.Fetch(batch)
	case "drain":
		n.Drain()
		return "", nil
	case "transferComplete":
		n.TransferComplete()
		return "", nil
	case "transferIncremental":
		n.TransferIncremental()
		return "", nil
	case "readSink":
		return n.SinkRows(), nil
	case "readSource":
		return n.SourceRows(), nil
	case "peakBuffer":
		return strconv.Itoa(n.peakBuffer), nil
	default:
		return "", fmt.Errorf("replicadb: unknown op %s", op.Name)
	}
}

// minRowBytes is the encoded size of the smallest row: two empty strings,
// one-byte version and seq, the deleted byte.
const minRowBytes = 5

// appendRow appends one row; keepSeq false writes its Seq as zero.
func appendRow(b []byte, r *row, keepSeq bool) []byte {
	b = wire.AppendString(b, r.Key)
	b = wire.AppendString(b, r.Value)
	b = wire.AppendUvarint(b, r.Version)
	b = wire.AppendBool(b, r.Deleted)
	if !keepSeq {
		return wire.AppendUvarint(b, 0)
	}
	return wire.AppendUvarint(b, r.Seq)
}

// appendTable appends a table's row count and its rows in ascending key
// order — the order it is held in.
func appendTable(b []byte, table []row, keepSeq bool) []byte {
	b = wire.AppendUvarint(b, uint64(len(table)))
	for i := range table {
		b = appendRow(b, &table[i], keepSeq)
	}
	return b
}

var errUnsorted = errors.New("replicadb: snapshot: table keys out of order")

// readTable decodes a row count and that many rows into dst, overwriting
// it. A key or value equal to the one live holds at the same place is
// shared, not copied. With keyed set, keys must be strictly ascending, as
// a table is written.
func readTable(r *wire.Reader, dst, live []row, keyed bool) []row {
	dst = dst[:0]
	for i, n := 0, r.Count(minRowBytes); i < n; i++ {
		key, value := r.View(), r.View()
		in := row{Version: r.Uvarint(), Deleted: r.Bool(), Seq: r.Uvarint()}
		if i < len(live) {
			in.Key, in.Value = share(live[i].Key, key), share(live[i].Value, value)
		} else {
			in.Key, in.Value = string(key), string(value)
		}
		if keyed && i > 0 && dst[i-1].Key >= in.Key {
			r.Fail(errUnsorted)
		}
		dst = append(dst, in)
	}
	return dst
}

// share returns held when v spells it, else v copied out.
func share(held string, v []byte) string {
	if held == string(v) {
		return held
	}
	return string(v)
}

// rowBytesGuess sizes an encoder's buffer per row it will write — short
// keys and values, one-byte counters; append grows past a low guess.
const rowBytesGuess = 16

// SyncPayload implements replica.State: the source table, then the
// version counter. Seq is local apply order — receivers assign their own —
// so it travels as zero.
func (n *Node) SyncPayload() ([]byte, error) {
	b := make([]byte, 0, 16+rowBytesGuess*len(n.source))
	return wire.AppendUvarint(appendTable(b, n.source, false), n.version), nil
}

// ApplySync implements replica.State: LWW-merge remote source rows. Rows
// are decoded by view, so only a key or value the node does not hold is
// copied out of the payload.
func (n *Node) ApplySync(payload []byte) error {
	n.stateVer++
	r := wire.NewReader(payload)
	count := r.Count(minRowBytes)
	n.incoming = slices.Grow(n.incoming[:0], count)[:count]
	for i := range n.incoming {
		n.incoming[i] = rowView{key: r.View(), value: r.View(), version: r.Uvarint(), deleted: r.Bool()}
		r.Uvarint() // Seq travels as zero; the receiver assigns its own
	}
	version := r.Uvarint()
	if err := r.Done(); err != nil {
		return fmt.Errorf("replicadb: sync payload: %w", err)
	}
	for _, in := range n.incoming {
		i, ok := findRow(n.source, in.key)
		if !n.flags.NoVersionResolution && ok && n.source[i].Version >= in.version {
			continue
		}
		n.seq++
		adopted := row{Version: in.version, Deleted: in.deleted, Seq: n.seq} // adopted rows are fresh local changes
		if ok {
			adopted.Key, adopted.Value = n.source[i].Key, share(n.source[i].Value, in.value)
		} else {
			adopted.Key, adopted.Value = string(in.key), string(in.value)
		}
		n.source = put(n.source, i, ok, adopted)
	}
	if version > n.version {
		n.version = version
	}
	return nil
}

// Snapshot implements replica.State: source, sink and buffer rows, then
// the peak-buffer, version, seq and snapshot-cut counters. The encoding is
// canonical: equal logical states always serialize to identical bytes
// (tables sorted by key; the buffer keeps its in-flight order, which IS
// state — Drain applies it in order).
func (n *Node) Snapshot() ([]byte, error) {
	b := make([]byte, 0, 32+rowBytesGuess*(len(n.source)+len(n.sink)+len(n.buffer)))
	b = appendTable(b, n.source, true)
	b = appendTable(b, n.sink, true)
	b = appendTable(b, n.buffer, true)
	b = wire.AppendUvarint(b, uint64(n.peakBuffer))
	b = wire.AppendUvarint(b, n.version)
	b = wire.AppendUvarint(b, n.seq)
	b = wire.AppendUvarint(b, n.snapshotCut)
	return b, nil
}

// Restore implements replica.State. It decodes into the spare tables and
// swaps them in only once the whole snapshot decoded, so a rejected
// snapshot leaves the node as it was.
func (n *Node) Restore(data []byte) error {
	r := wire.NewReader(data)
	source := readTable(r, n.spare[0], n.source, true)
	sink := readTable(r, n.spare[1], n.sink, true)
	buffer := readTable(r, n.spare[2], n.buffer, false)
	peak, version, seq, cut := int(r.Uvarint()), r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Done(); err != nil {
		return fmt.Errorf("replicadb: snapshot: %w", err)
	}
	n.spare = [3][]row{n.source, n.sink, n.buffer}
	n.source, n.sink, n.buffer = source, sink, buffer
	n.peakBuffer, n.version, n.seq, n.snapshotCut = peak, version, seq, cut
	n.stateVer++
	return nil
}

// Fingerprint implements replica.State: source and sink contents (the
// sink-matches-source invariant is the issue-#23 detector).
func (n *Node) Fingerprint() string {
	var buf [256]byte
	b := n.appendRows(append(buf[:0], "src{"...), n.source)
	b = n.appendRows(append(b, "}sink{"...), n.sink)
	return string(append(b, '}'))
}
