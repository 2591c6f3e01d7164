// Package yorkie re-implements the replication core of Yorkie (evaluation
// subject 4): a document store whose JSON-like documents support
// collaborative editing through CRDTs — nested objects with last-write-wins
// fields (internal/crdt.JSONDoc) and arrays with RGA semantics
// (internal/crdt.RGA).
//
// Two seedable defects reproduce the paper's Yorkie bug benchmarks:
//
//   - BugMoveAfter (issue #676, "Document doesn't converge when using
//     Array.MoveAfter"): array moves use the naive delete+insert, so
//     concurrent moves of the same element duplicate it and replicas
//     disagree.
//   - BugNestedSet (issue #663, "Modify the set operation to handle
//     nested object values"): the remote-apply path of a set op flattens
//     nested object values to a primitive, so replicas that received the
//     op via sync diverge from the replica that executed it locally.
package yorkie

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/er-pi/erpi/internal/crdt"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// Flags seed the known defects.
type Flags struct {
	BugMoveAfter bool `json:"bug_move_after"`
	BugNestedSet bool `json:"bug_nested_set"`
	// NoStampResolution re-stamps remote ops with the receiver's local
	// clock, so writes resolve by arrival order instead of their original
	// causality (misconception #1 seed).
	NoStampResolution bool `json:"no_stamp_resolution"`
}

// opKind names a document operation; its value is the op's wire code.
type opKind uint8

const (
	opSet opKind = iota
	opSetObject
	opDelete
	opArrInsert
	opArrMove
	numOpKinds
)

// docOp is one replicated document operation (op-based sync).
type docOp struct {
	Kind  opKind
	Path  []string
	Value string
	Stamp crdt.Time
	// Array op fields: element identities resolved at record time, so
	// remote application is position-independent.
	ElemID  crdt.Time
	AfterID crdt.Time
	// Remote marks an op applied via sync (the buggy code path of issue
	// #663 differs between local and remote application).
	Remote bool
}

// Doc is one replica's document: a JSON tree plus a single shared array
// (the collaborative list of the document).
type Doc struct {
	flags Flags
	clock *crdt.Clock
	tree  *crdt.JSONDoc
	arr   *crdt.RGA
	// opLog holds every op this replica originated or applied, for
	// op-based synchronization.
	opLog []docOp
	// applied dedups ops by stamp.
	applied appliedSet
	// ver counts mutations for snapshot-cache invalidation
	// (replica.Versioned). Every Apply advances the Lamport clock — even
	// reads stamp — so every op bumps it; a sync that applies no new op
	// changes nothing and does not.
	ver uint64

	// Scratch, never state: Snapshot's order, last decoded ops, path views.
	sorted   []docOp
	incoming []docOp
	path     [][]byte
}

var (
	_ replica.State     = (*Doc)(nil)
	_ replica.Versioned = (*Doc)(nil)
)

// StateVersion implements replica.Versioned.
func (d *Doc) StateVersion() uint64 { return d.ver }

// New returns an empty document for a replica identity.
func New(identity string, flags Flags) *Doc {
	return &Doc{
		flags: flags,
		clock: crdt.NewClock(identity),
		tree:  crdt.NewJSONDoc(),
		arr:   crdt.NewRGA(),
	}
}

// appliedSet is the set of op stamps a document has applied: per origin
// replica, a bitset over Lamport counters, found by a scan of the few
// origins a document hears from. An origin's bitset grows only to twice
// the stamps it holds, plus a margin; a counter beyond that, which only a
// crafted payload carries, goes to a map instead, so a few far-flung
// counters cannot make a bitset large.
type appliedSet struct {
	origins []appliedOrigin
	far     map[crdt.Time]struct{}
}

type appliedOrigin struct {
	replica string
	bits    []uint64
	n       int // stamps set in bits
}

// isApplied reports whether the set holds the stamp (counter, replica);
// replica is a string or a view of one.
func isApplied[R string | []byte](a *appliedSet, counter uint64, replica R) bool {
	for i := range a.origins {
		if o := &a.origins[i]; o.replica == string(replica) {
			if w := counter / 64; w < uint64(len(o.bits)) && o.bits[w]&(1<<(counter%64)) != 0 {
				return true
			}
			break
		}
	}
	if len(a.far) == 0 {
		return false
	}
	_, ok := a.far[crdt.Time{Counter: counter, Replica: string(replica)}]
	return ok
}

// add puts the stamp in the set.
func (a *appliedSet) add(t crdt.Time) {
	i := slices.IndexFunc(a.origins, func(o appliedOrigin) bool { return o.replica == t.Replica })
	if i < 0 {
		i = len(a.origins)
		a.origins = append(a.origins, appliedOrigin{replica: t.Replica})
	}
	o := &a.origins[i]
	w := t.Counter / 64
	if w >= uint64(len(o.bits)) && w > uint64(2*o.n+8) {
		if a.far == nil {
			a.far = make(map[crdt.Time]struct{})
		}
		a.far[t] = struct{}{}
		return
	}
	for uint64(len(o.bits)) <= w {
		o.bits = append(o.bits, 0)
	}
	o.bits[w] |= 1 << (t.Counter % 64)
	o.n++
}

// reset empties the set, keeping the origins and their bitsets' room.
func (a *appliedSet) reset() {
	for i := range a.origins {
		clear(a.origins[i].bits)
		a.origins[i].n = 0
	}
	clear(a.far)
}

// applyOp executes one doc op against local state.
func (d *Doc) applyOp(op docOp) error {
	if isApplied(&d.applied, op.Stamp.Counter, op.Stamp.Replica) {
		return nil // idempotent
	}
	d.applied.add(op.Stamp)
	d.clock.Witness(op.Stamp)
	if op.Remote && d.flags.NoStampResolution {
		// Misconception #1 seed: the receiver re-stamps the op, so the
		// write wins or loses by arrival order, not causality.
		op.Stamp = d.clock.Now()
	}
	switch op.Kind {
	case opSet:
		return treeErr(d.tree.Set(op.Path, op.Value, op.Stamp))
	case opSetObject:
		if op.Remote && d.flags.BugNestedSet && len(op.Path) > 1 && d.tree.Keys(op.Path[:len(op.Path)-1]) == nil {
			// Defect (issue #663): the remote-apply path handles a nested
			// object set correctly only when the parent object already
			// exists; when the op overtakes the parent's creation it
			// stores a flat primitive placeholder instead, so the
			// receiving replica's tree diverges from the sender's — but
			// only in interleavings where the syncs arrive out of causal
			// order.
			return treeErr(d.tree.Set(op.Path, "[object]", op.Stamp))
		}
		return treeErr(d.tree.SetObject(op.Path, op.Stamp))
	case opDelete:
		return treeErr(d.tree.Delete(op.Path, op.Stamp))
	case opArrInsert:
		d.insertArrWithStamp(op.AfterID, op.Value, op.Stamp)
		return nil
	case opArrMove:
		return d.moveArr(op)
	default:
		return fmt.Errorf("yorkie: unknown doc op %d", op.Kind)
	}
}

// insertArrWithStamp inserts into the RGA reusing the op's stamp as the
// element ID so that all replicas allocate identical IDs.
func (d *Doc) insertArrWithStamp(origin crdt.Time, value string, stamp crdt.Time) {
	// The RGA allocates IDs from its clock; drive a clock on the stack to
	// just below the stamp so the allocated ID equals the stamp.
	tmp := crdt.NewClock(stamp.Replica)
	tmp.SetCounter(stamp.Counter - 1)
	if _, err := d.arr.InsertAfter(tmp, origin, value); err != nil {
		// Origin missing (concurrent edits): insert at head, convergent
		// because the ID is still the stamp.
		_, _ = d.arr.InsertAfter(tmp, crdt.HeadID, value)
	}
}

func (d *Doc) moveArr(op docOp) error {
	tmp := crdt.NewClock(op.Stamp.Replica)
	tmp.SetCounter(op.Stamp.Counter - 1)
	if d.flags.BugMoveAfter {
		// Defect (issue #676): MoveAfter = delete + fresh insert. A
		// concurrent move already tombstoned the element, so the remote
		// op fails and each replica keeps only its own relocation — the
		// document never converges.
		if _, err := d.arr.Move(tmp, op.ElemID, op.AfterID); err != nil {
			return replica.ErrFailedOp
		}
		return nil
	}
	// Fixed path: MoveWins adds a placement for the element's root and the
	// highest placement ID wins deterministically, so concurrent moves
	// reconcile identically at every replica.
	if _, err := d.arr.MoveWins(tmp, op.ElemID, op.AfterID); err != nil {
		return replica.ErrFailedOp
	}
	return nil
}

// record runs an op locally and logs it for synchronization.
func (d *Doc) record(op docOp) error {
	if err := d.applyOp(op); err != nil {
		return err
	}
	d.opLog = append(d.opLog, op)
	return nil
}

// Apply implements replica.State. Ops:
//
//	set(path, value)        set a primitive at a dotted path
//	setObject(path)         set a nested object at a dotted path
//	deleteKey(path)         delete the entry at a dotted path
//	arrInsert(index, value) insert into the document array
//	arrMove(index, to)      move an array element (MoveAfter)
//	read()                  -> document snapshot
//	readArr()               -> array contents
func (d *Doc) Apply(op replica.Op) (string, error) {
	d.ver++
	stamp := d.clock.Now()
	switch op.Name {
	case "set":
		return "", d.record(docOp{Kind: opSet, Path: splitPath(op.Args[0]), Value: op.Args[1], Stamp: stamp})
	case "setObject":
		return "", d.record(docOp{Kind: opSetObject, Path: splitPath(op.Args[0]), Stamp: stamp})
	case "deleteKey":
		return "", d.record(docOp{Kind: opDelete, Path: splitPath(op.Args[0]), Stamp: stamp})
	case "arrInsert":
		idx, err := strconv.Atoi(op.Args[0])
		if err != nil {
			return "", fmt.Errorf("yorkie: bad index: %w", err)
		}
		after, err := d.originAt(idx)
		if err != nil {
			return "", replica.ErrFailedOp
		}
		return "", d.record(docOp{Kind: opArrInsert, AfterID: after, Value: op.Args[1], Stamp: stamp})
	case "arrMove":
		idx, err := strconv.Atoi(op.Args[0])
		if err != nil {
			return "", fmt.Errorf("yorkie: bad index: %w", err)
		}
		to, err := strconv.Atoi(op.Args[1])
		if err != nil {
			return "", fmt.Errorf("yorkie: bad target: %w", err)
		}
		if idx >= d.arr.Len() || d.arr.Len() == 0 {
			return "", replica.ErrFailedOp
		}
		elem, err := d.arr.IDAt(idx)
		if err != nil {
			return "", replica.ErrFailedOp
		}
		after, err := d.originAt(to)
		if err != nil || after == elem {
			after = crdt.HeadID
		}
		return "", d.record(docOp{Kind: opArrMove, ElemID: elem, AfterID: after, Stamp: stamp})
	case "read":
		return d.tree.Snapshot(), nil
	case "readArr":
		var buf [128]byte
		return string(d.arr.AppendValues(buf[:0], ",")), nil
	default:
		return "", fmt.Errorf("yorkie: unknown op %s", op.Name)
	}
}

func splitPath(s string) []string { return strings.Split(s, ".") }

// treeErr maps JSON-tree path conflicts (e.g. a path blocked by a newer
// primitive) to failed ops: during exhaustive replay these are legitimate
// consequences of reordering, not fatal errors.
func treeErr(err error) error {
	if err != nil {
		return replica.ErrFailedOp
	}
	return nil
}

// originAt resolves "insert so the element lands at visible index idx"
// into the ID of the element it follows (HeadID for the front). Indexes
// past the end clamp to append-at-tail.
func (d *Doc) originAt(idx int) (crdt.Time, error) {
	if idx <= 0 || d.arr.Len() == 0 {
		return crdt.HeadID, nil
	}
	if idx > d.arr.Len() {
		idx = d.arr.Len()
	}
	return d.arr.IDAt(idx - 1)
}

// minOpBytes is the encoded size of the smallest op: kind, empty path,
// empty value, three empty-replica times and the remote byte.
const minOpBytes = 1 + 1 + 1 + 3*2 + 1

var errZeroStamp = errors.New("yorkie: op with a zero stamp")

// appendOps encodes the op count and then every op field by field in
// declaration order; remote overrides each op's Remote mark when set.
func appendOps(ops []docOp, remote bool) []byte {
	// 24 bytes an op is a guess (short paths and values, one-letter
	// replicas); append grows past it.
	b := wire.AppendUvarint(make([]byte, 0, 16+24*len(ops)), uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		b = wire.AppendUvarint(b, uint64(op.Kind))
		b = wire.AppendStrings(b, op.Path)
		b = wire.AppendString(b, op.Value)
		b = op.Stamp.AppendBinary(b)
		b = op.ElemID.AppendBinary(b)
		b = op.AfterID.AppendBinary(b)
		b = wire.AppendBool(b, remote || op.Remote)
	}
	return b
}

// readOps decodes what appendOps wrote into dst, overwriting it. Stamps
// are issued by Clock.Now and never zero; a zero one is rejected because an
// array op would turn it into an element carrying crdt.HeadID. With
// skipApplied an already applied op is only viewed, never copied.
func (d *Doc) readOps(r *wire.Reader, dst []docOp, skipApplied bool) []docOp {
	n := r.Count(minOpBytes)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		kind := opKind(r.Uvarint())
		if kind >= numOpKinds {
			r.Fail(fmt.Errorf("yorkie: unknown doc op %d", kind))
		}
		d.path = d.path[:0]
		for np := r.Count(1); np > 0; np-- {
			d.path = append(d.path, r.View())
		}
		value := r.View()
		stamp, elem, after := crdt.ReadTimeView(r), crdt.ReadTimeView(r), crdt.ReadTimeView(r)
		remote := r.Bool()
		if stamp.Counter == 0 && len(stamp.Replica) == 0 {
			r.Fail(errZeroStamp)
		}
		if skipApplied && isApplied(&d.applied, stamp.Counter, stamp.Replica) {
			continue
		}
		op := docOp{Kind: kind, Value: string(value), Stamp: stamp.Time(), ElemID: elem.Time(), AfterID: after.Time(), Remote: remote}
		if len(d.path) > 0 {
			op.Path = make([]string, len(d.path))
			for j, p := range d.path {
				op.Path[j] = string(p)
			}
		}
		dst = append(dst, op)
	}
	return dst
}

// SyncPayload implements replica.State: the full op log, marked remote so
// the receiver runs the remote-apply path.
func (d *Doc) SyncPayload() ([]byte, error) {
	return appendOps(d.opLog, true), nil
}

// ApplySync implements replica.State: apply the remote ops (idempotently)
// and adopt them into the local op log for further propagation. A payload
// holding no op the document has not applied changes nothing, so it
// leaves the version alone too (DESIGN.md §4.15).
func (d *Doc) ApplySync(payload []byte) error {
	r := wire.NewReader(payload)
	d.incoming = d.readOps(r, d.incoming, true)
	if err := r.Done(); err != nil {
		return fmt.Errorf("yorkie: sync payload: %w", err)
	}
	if len(d.incoming) == 0 {
		return nil
	}
	d.ver++
	for _, op := range d.incoming {
		if isApplied(&d.applied, op.Stamp.Counter, op.Stamp.Replica) {
			continue
		}
		if err := d.applyOp(op); err != nil && err != replica.ErrFailedOp {
			return err
		}
		d.opLog = append(d.opLog, op)
	}
	return nil
}

// Snapshot implements replica.State: the op log, which replays
// deterministically, followed by the clock.
//
// With correct semantics the log is serialized sorted by stamp, which
// makes the encoding canonical: replicas that applied the same op set in
// different sync orders snapshot to identical bytes. Stamp order is a
// topological order of causality — an op's issuer witnessed every stamp
// it references (AfterID, parent creation), so references always sort
// before their dependents and the replay is faithful. Each seeded defect
// flag makes remote application arrival-order-dependent, so under any
// flag the log keeps its insertion order verbatim.
func (d *Doc) Snapshot() ([]byte, error) {
	ops := d.opLog
	if !d.flags.BugMoveAfter && !d.flags.BugNestedSet && !d.flags.NoStampResolution {
		// Stable, so that a log holding one stamp twice (no valid state
		// does; a decoded one may) still re-encodes to the same bytes.
		d.sorted = append(d.sorted[:0], d.opLog...)
		ops = d.sorted
		slices.SortStableFunc(ops, func(a, b docOp) int { return a.Stamp.Compare(b.Stamp) })
	}
	return wire.AppendUvarint(appendOps(ops, false), d.clock.Counter()), nil
}

// Restore implements replica.State: replay the decoded log into d's own,
// emptied, state. Replay cannot fail once decoding succeeded: readOps
// rejects unknown kinds, and anything else is a failed op.
func (d *Doc) Restore(data []byte) error {
	r := wire.NewReader(data)
	d.incoming = d.readOps(r, d.incoming, false)
	clock := r.Uvarint()
	if err := r.Done(); err != nil {
		return fmt.Errorf("yorkie: snapshot: %w", err)
	}
	d.clock.SetCounter(0)
	d.tree.Reset()
	d.arr.Reset()
	d.applied.reset()
	for _, op := range d.incoming {
		_ = d.applyOp(op)
	}
	d.opLog = append(d.opLog[:0], d.incoming...)
	d.clock.SetCounter(clock)
	d.ver++
	return nil
}

// Fingerprint implements replica.State: tree plus array contents.
func (d *Doc) Fingerprint() string {
	var buf [256]byte
	b := append(d.tree.AppendSnapshot(buf[:0]), "|["...)
	return string(append(d.arr.AppendValues(b, ","), ']'))
}
