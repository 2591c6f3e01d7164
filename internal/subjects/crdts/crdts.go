// Package crdts re-implements the evaluation paper's fifth subject: a
// plain collection of replicated data structures (after the java "crdts"
// library) with application logic layered on top — a to-do list, a shared
// set, a counter, and a collaborative list in one replicated workspace.
//
// The to-do application supports two ID strategies: sequential IDs
// (increment the highest known ID — the misconception #4 hazard, clashing
// under concurrent creation) and replica-unique IDs (the AMC-recommended
// fix). The collaborative list exposes unsorted reads (misconception #2)
// and a move operation with a naive delete+insert variant
// (misconception #3).
package crdts

import (
	"fmt"
	"strconv"

	"github.com/er-pi/erpi/internal/crdt"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// Flags configure the application-logic hazards.
type Flags struct {
	// SequentialIDs uses max+1 to-do IDs (misconception #4) instead of
	// replica-unique IDs.
	SequentialIDs bool `json:"sequential_ids"`
	// NaiveMove moves list items by delete+insert (misconception #3).
	NaiveMove bool `json:"naive_move"`
	// LastSyncWins replaces the merge-based sync with wholesale state
	// overwrite (misconception #1 seed: no conflict resolution).
	LastSyncWins bool `json:"last_sync_wins"`
}

// Workspace is one replica of the collection app.
type Workspace struct {
	flags Flags
	clock *crdt.Clock
	// parts is the replicated state; spare is where Restore and the
	// LastSyncWins overwrite decode, to be swapped in once the input
	// proved valid.
	*parts
	spare *parts
	// ver counts mutations for snapshot-cache invalidation
	// (replica.Versioned). The four read ops never advance the clock, so
	// they leave it untouched; every other op bumps it, even on failure —
	// some failing ops (todo.done) still advance the clock.
	ver    uint64
	sorted []string // the renderings' sort scratch
}

// parts is a workspace's replicated state without identity, flags and
// clock.
type parts struct {
	// todos maps to-do ID -> title (LWW per key).
	todos crdt.ORMap
	// tags is a shared OR-set.
	tags crdt.ORSet
	// counter is a shared PN-counter.
	counter crdt.PNCounter
	// list is the collaborative list.
	list crdt.RGA
	// seq tracks the highest to-do ID this replica has seen (the
	// sequential-ID strategy's source of clashes).
	seq int
}

var (
	_ replica.State     = (*Workspace)(nil)
	_ replica.Versioned = (*Workspace)(nil)
)

// StateVersion implements replica.Versioned.
func (w *Workspace) StateVersion() uint64 { return w.ver }

// New returns an empty workspace for a replica identity.
func New(identity string, flags Flags) *Workspace {
	return &Workspace{
		flags: flags,
		clock: crdt.NewClock(identity),
		parts: &parts{
			todos:   *crdt.NewORMap(),
			tags:    *crdt.NewORSet(),
			counter: *crdt.NewPNCounter(),
			list:    *crdt.NewRGA(),
		},
		spare: new(parts),
	}
}

// CreateTodo adds a to-do item and returns its generated ID.
func (w *Workspace) CreateTodo(title string) string {
	w.ver++
	var id string
	if w.flags.SequentialIDs {
		// Misconception #4: concurrent creators both see the same highest
		// ID and both produce highest+1.
		w.seq++
		id = strconv.Itoa(w.seq)
	} else {
		id = w.clock.Now().String()
	}
	w.todos.Put(id, title, w.clock.Now())
	return id
}

// Apply implements replica.State. Ops:
//
//	todo.create(title)         -> generated ID
//	todo.done(id)              remove a to-do
//	todo.read()                -> "id:title,..."
//	tag.add(tag) / tag.remove(tag) / tag.read()
//	counter.inc(n) / counter.dec(n) / counter.read()
//	list.insert(idx, v) / list.move(from, to) / list.read()
func (w *Workspace) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "todo.read", "tag.read", "counter.read", "list.read", "todo.create":
	default:
		w.ver++ // todo.create bumps in CreateTodo
	}
	switch op.Name {
	case "todo.create":
		return w.CreateTodo(op.Args[0]), nil
	case "todo.done":
		if !w.todos.Remove(op.Args[0], w.clock.Now()) {
			return "", replica.ErrFailedOp
		}
		return "", nil
	case "todo.read":
		var buf [128]byte
		return string(w.appendTodos(buf[:0])), nil
	case "tag.add":
		w.tags.Add(w.clock, op.Args[0])
		return "", nil
	case "tag.remove":
		if !w.tags.Remove(op.Args[0]) {
			return "", replica.ErrFailedOp
		}
		return "", nil
	case "tag.read":
		var buf [128]byte
		return string(w.appendTags(buf[:0])), nil
	case "counter.inc":
		n, err := strconv.ParseUint(op.Args[0], 10, 32)
		if err != nil {
			return "", fmt.Errorf("crdts: bad delta: %w", err)
		}
		w.counter.Inc(w.clock.Replica(), n)
		return "", nil
	case "counter.dec":
		n, err := strconv.ParseUint(op.Args[0], 10, 32)
		if err != nil {
			return "", fmt.Errorf("crdts: bad delta: %w", err)
		}
		w.counter.Dec(w.clock.Replica(), n)
		return "", nil
	case "counter.read":
		return strconv.FormatInt(w.counter.Value(), 10), nil
	case "list.insert":
		idx, err := strconv.Atoi(op.Args[0])
		if err != nil {
			return "", fmt.Errorf("crdts: bad index: %w", err)
		}
		if idx > w.list.Len() {
			idx = w.list.Len()
		}
		if _, err := w.list.InsertAt(w.clock, idx, op.Args[1]); err != nil {
			return "", replica.ErrFailedOp
		}
		return "", nil
	case "list.move":
		return "", w.moveListItem(op.Args[0], op.Args[1])
	case "list.read":
		var buf [128]byte
		return string(w.list.AppendValues(buf[:0], ",")), nil
	default:
		return "", fmt.Errorf("crdts: unknown op %s", op.Name)
	}
}

func (w *Workspace) moveListItem(fromArg, toArg string) error {
	from, err := strconv.Atoi(fromArg)
	if err != nil {
		return fmt.Errorf("crdts: bad index: %w", err)
	}
	to, err := strconv.Atoi(toArg)
	if err != nil {
		return fmt.Errorf("crdts: bad index: %w", err)
	}
	if from >= w.list.Len() || w.list.Len() == 0 {
		return replica.ErrFailedOp
	}
	id, err := w.list.IDAt(from)
	if err != nil {
		return replica.ErrFailedOp
	}
	after := crdt.HeadID
	if to > 0 {
		if to > w.list.Len() {
			to = w.list.Len()
		}
		afterID, err := w.list.IDAt(to - 1)
		if err != nil {
			return replica.ErrFailedOp
		}
		if afterID != id {
			after = afterID
		}
	}
	if w.flags.NaiveMove {
		_, err = w.list.Move(w.clock, id, after)
	} else {
		_, err = w.list.MoveWins(w.clock, id, after)
	}
	if err != nil {
		return replica.ErrFailedOp
	}
	return nil
}

// appendTodos appends the live to-dos as "id:title", ids ascending.
func (w *Workspace) appendTodos(b []byte) []byte {
	w.sorted = w.todos.SortedKeys(w.sorted)
	for i, k := range w.sorted {
		if i > 0 {
			b = append(b, ',')
		}
		v, _ := w.todos.Get(k)
		b = append(append(append(b, k...), ':'), v...)
	}
	return b
}

// appendTags appends the live tags comma-joined, ascending.
func (w *Workspace) appendTags(b []byte) []byte {
	w.sorted = w.tags.SortedElements(w.sorted)
	for i, t := range w.sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t...)
	}
	return b
}

// SyncPayload implements replica.State.
func (w *Workspace) SyncPayload() ([]byte, error) { return w.Snapshot() }

// ApplySync implements replica.State: merge the remote workspace (or,
// with LastSyncWins, overwrite it wholesale). The merge reads the payload
// by view and changes nothing before the whole payload proved valid
// (DESIGN.md §4.16, rule 3); it copies out only what the receiver does
// not hold yet.
func (w *Workspace) ApplySync(payload []byte) error {
	w.ver++
	if w.flags.LastSyncWins {
		return w.overwrite(payload)
	}
	r := wire.NewReader(payload)
	w.todos.ViewBinary(r)
	w.tags.ViewBinary(r)
	w.counter.ViewBinary(r)
	w.list.ViewBinary(r)
	seq, clock := int(r.Uvarint()), r.Uvarint()
	if err := r.Done(); err != nil {
		return fmt.Errorf("crdts: snapshot: %w", err)
	}
	w.todos.MergeView()
	w.tags.MergeView()
	w.counter.MergeView()
	w.list.MergeView()
	if seq > w.seq {
		w.seq = seq
	}
	if clock > w.clock.Counter() {
		w.clock.SetCounter(clock)
	}
	return nil
}

// Snapshot implements replica.State: the four component CRDTs in their
// own join-complete binary encodings (todos, tags, counter, list), then
// the to-do sequence and the clock.
func (w *Workspace) Snapshot() ([]byte, error) {
	// A workspace of a dozen short items encodes to 100–250 bytes; append
	// grows past the guess.
	b := w.todos.AppendBinary(make([]byte, 0, 256))
	b = w.tags.AppendBinary(b)
	b = w.counter.AppendBinary(b)
	b = w.list.AppendBinary(b)
	b = wire.AppendUvarint(b, uint64(w.seq))
	b = wire.AppendUvarint(b, w.clock.Counter())
	return b, nil
}

// overwrite replaces the replicated state and the clock with a snapshot's:
// it decodes into the spare parts, reusing their storage, and swaps them
// in once the snapshot proved valid.
func (w *Workspace) overwrite(snapshot []byte) error {
	p := w.spare
	r := wire.NewReader(snapshot)
	p.todos.ReadBinary(r)
	p.tags.ReadBinary(r)
	p.counter.ReadBinary(r)
	p.list.ReadBinary(r)
	p.seq = int(r.Uvarint())
	clock := r.Uvarint()
	if err := r.Done(); err != nil {
		return fmt.Errorf("crdts: snapshot: %w", err)
	}
	w.parts, w.spare = p, w.parts
	w.clock.SetCounter(clock)
	return nil
}

// Restore implements replica.State.
func (w *Workspace) Restore(snapshot []byte) error {
	if err := w.overwrite(snapshot); err != nil {
		return err
	}
	w.ver++
	return nil
}

// Fingerprint implements replica.State.
func (w *Workspace) Fingerprint() string {
	var buf [256]byte
	b := w.appendTodos(append(buf[:0], "todos{"...))
	b = w.appendTags(append(b, "}tags{"...))
	b = strconv.AppendInt(append(b, "}counter{"...), w.counter.Value(), 10)
	b = w.list.AppendValues(append(b, "}list{"...), ",")
	return string(append(b, '}'))
}
